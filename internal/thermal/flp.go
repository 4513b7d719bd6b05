package thermal

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Block is one rectangular unit of a HotSpot-style floorplan.
type Block struct {
	// Name is the block label (blocks whose name starts with "core" become
	// power-injection cores of the resulting Floorplan).
	Name string
	// Width and Height are the block dimensions in meters.
	Width, Height float64
	// Left and Bottom are the block's lower-left corner coordinates in
	// meters.
	Left, Bottom float64
}

// Area returns the block area in square meters.
func (b Block) Area() float64 { return b.Width * b.Height }

// ParseFLP reads a HotSpot .flp floorplan file: one block per line as
//
//	<name> <width> <height> <left-x> <bottom-y>
//
// with '#' comments and blank lines ignored (dimensions in meters, as
// HotSpot uses). Every number must be finite and the dimensions positive.
func ParseFLP(r io.Reader) ([]Block, error) {
	var blocks []Block
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 5 {
			return nil, fmt.Errorf("thermal: flp line %d: want 5 fields, got %d", line, len(fields))
		}
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("thermal: flp line %d: bad number %q: %w", line, fields[i+1], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("thermal: flp line %d: block %q has non-finite number %q", line, fields[0], fields[i+1])
			}
			vals[i] = v
		}
		if vals[0] <= 0 || vals[1] <= 0 {
			return nil, fmt.Errorf("thermal: flp line %d: block %q has non-positive dimensions", line, fields[0])
		}
		blocks = append(blocks, Block{
			Name: fields[0], Width: vals[0], Height: vals[1], Left: vals[2], Bottom: vals[3],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("thermal: flp: %w", err)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("thermal: flp: no blocks")
	}
	return blocks, nil
}

// sharedEdge returns the length of the shared boundary between two blocks
// (0 if they do not abut). Blocks abut when they touch along an edge within
// a small tolerance.
func sharedEdge(a, b Block) float64 {
	const tol = 1e-9
	// Vertical adjacency: a's right edge touches b's left edge (or vice
	// versa); overlap measured along y.
	overlapY := math.Min(a.Bottom+a.Height, b.Bottom+b.Height) - math.Max(a.Bottom, b.Bottom)
	if overlapY > tol {
		if math.Abs((a.Left+a.Width)-b.Left) < tol || math.Abs((b.Left+b.Width)-a.Left) < tol {
			return overlapY
		}
	}
	// Horizontal adjacency: a's top edge touches b's bottom edge.
	overlapX := math.Min(a.Left+a.Width, b.Left+b.Width) - math.Max(a.Left, b.Left)
	if overlapX > tol {
		if math.Abs((a.Bottom+a.Height)-b.Bottom) < tol || math.Abs((b.Bottom+b.Height)-a.Bottom) < tol {
			return overlapX
		}
	}
	return 0
}

// FLPConfig scales a parsed floorplan into an RC network.
type FLPConfig struct {
	// AmbientC is the ambient temperature, degrees Celsius.
	AmbientC float64
	// CapacitancePerM2 converts block area to heat capacity (J/K per m^2):
	// silicon thickness x density x specific heat, plus the package share
	// attributed to the block.
	CapacitancePerM2 float64
	// LateralConductancePerM converts shared-edge length to block-to-block
	// conductance (W/K per meter of shared edge).
	LateralConductancePerM float64
	// VerticalConductancePerM2 converts block area to the conductance into
	// the shared spreader (W/K per m^2).
	VerticalConductancePerM2 float64
	// SpreaderCapacitance, SinkCapacitance, SpreaderToSink and
	// SinkToAmbient configure the package path, as in FloorplanConfig.
	SpreaderCapacitance, SinkCapacitance float64
	SpreaderToSink, SinkToAmbient        float64
}

// DefaultFLPConfig returns package constants that put a HotSpot ev6-class
// floorplan (~2 cm^2 die) in the same operating envelope as the calibrated
// quad-core model.
func DefaultFLPConfig() FLPConfig {
	return FLPConfig{
		AmbientC:                 30.0,
		CapacitancePerM2:         3.0e3, // ~0.6 J/K per 2 cm^2 die quarter
		LateralConductancePerM:   70.0,
		VerticalConductancePerM2: 2.2e3,
		SpreaderCapacitance:      15.0,
		SinkCapacitance:          40.0,
		SpreaderToSink:           8.0,
		SinkToAmbient:            1.45,
	}
}

// FloorplanFromBlocks builds an RC network from floorplan geometry: every
// block becomes a node with area-proportional capacitance and a vertical
// path to a shared spreader and sink; abutting blocks are laterally coupled
// in proportion to their shared edge length. Blocks whose name begins with
// "core" (case-insensitive) become the Floorplan's power-injection cores, in
// file order; if no block is named core*, every block becomes a core. It
// returns an error for duplicate block names, a block named "spreader" or
// "sink", and geometry whose capacitances or conductances are not positive
// and finite.
func FloorplanFromBlocks(blocks []Block, cfg FLPConfig) (*Floorplan, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("thermal: floorplan needs at least one block")
	}
	net := NewNetwork(cfg.AmbientC)
	fp := &Floorplan{Net: net}
	idx := make([]int, len(blocks))
	for i, b := range blocks {
		n, err := net.AddNode(Node{Name: b.Name, Capacitance: cfg.CapacitancePerM2 * b.Area()})
		if err != nil {
			return nil, err
		}
		idx[i] = n
		if strings.HasPrefix(strings.ToLower(b.Name), "core") {
			fp.Cores = append(fp.Cores, n)
		}
	}
	if len(fp.Cores) == 0 {
		fp.Cores = append([]int(nil), idx...)
	}
	// A block named like a package node, or a geometry whose areas or edges
	// overflow, is reported by the network's own checks.
	var err error
	if fp.Spreader, err = net.AddNode(Node{Name: "spreader", Capacitance: cfg.SpreaderCapacitance}); err != nil {
		return nil, err
	}
	if fp.Sink, err = net.AddNode(Node{
		Name:               "sink",
		Capacitance:        cfg.SinkCapacitance,
		AmbientConductance: cfg.SinkToAmbient,
	}); err != nil {
		return nil, err
	}
	if err := net.Connect(fp.Spreader, fp.Sink, cfg.SpreaderToSink); err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if err := net.Connect(idx[i], fp.Spreader, cfg.VerticalConductancePerM2*b.Area()); err != nil {
			return nil, fmt.Errorf("thermal: block %q: %w", b.Name, err)
		}
		for j := i + 1; j < len(blocks); j++ {
			if e := sharedEdge(b, blocks[j]); e > 0 {
				if err := net.Connect(idx[i], idx[j], cfg.LateralConductancePerM*e); err != nil {
					return nil, fmt.Errorf("thermal: blocks %q and %q: %w", b.Name, blocks[j].Name, err)
				}
			}
		}
	}
	return fp, nil
}

// FloorplanFromFLP parses a HotSpot .flp stream and builds the RC network.
func FloorplanFromFLP(r io.Reader, cfg FLPConfig) (*Floorplan, error) {
	blocks, err := ParseFLP(r)
	if err != nil {
		return nil, err
	}
	return FloorplanFromBlocks(blocks, cfg)
}
