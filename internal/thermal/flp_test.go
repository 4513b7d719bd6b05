package thermal

import (
	"math"
	"strings"
	"testing"
)

// quadFLP is a 2x2 grid of 1cm x 1cm cores, HotSpot .flp syntax.
const quadFLP = `
# name width height left bottom
core0 0.01 0.01 0.00 0.01
core1 0.01 0.01 0.01 0.01
core2 0.01 0.01 0.00 0.00
core3 0.01 0.01 0.01 0.00
`

func TestParseFLP(t *testing.T) {
	blocks, err := ParseFLP(strings.NewReader(quadFLP))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	if blocks[0].Name != "core0" || blocks[0].Width != 0.01 || blocks[0].Bottom != 0.01 {
		t.Errorf("block 0 parsed wrong: %+v", blocks[0])
	}
	if math.Abs(blocks[0].Area()-1e-4) > 1e-12 {
		t.Errorf("Area = %g", blocks[0].Area())
	}
}

func TestParseFLPErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"core0 0.01 0.01 0",    // too few fields
		"core0 x 0.01 0 0",     // bad number
		"core0 0 0.01 0 0",     // zero width
		"core0 -0.01 0.01 0 0", // negative width
		"core0 NaN 0.01 0 0",   // NaN width
		"core0 0.01 Inf 0 0",   // infinite height
		"core0 0.01 0.01 -Inf 0",
		"core0 0.01 0.01 0 nan",
	}
	for _, in := range cases {
		if _, err := ParseFLP(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestSharedEdge(t *testing.T) {
	a := Block{Name: "a", Width: 1, Height: 1, Left: 0, Bottom: 0}
	b := Block{Name: "b", Width: 1, Height: 1, Left: 1, Bottom: 0}     // right neighbour
	c := Block{Name: "c", Width: 1, Height: 1, Left: 0, Bottom: 1}     // top neighbour
	d := Block{Name: "d", Width: 1, Height: 1, Left: 2.5, Bottom: 0}   // detached
	e := Block{Name: "e", Width: 1, Height: 0.5, Left: 1, Bottom: 0.5} // partial overlap right
	if got := sharedEdge(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("a|b shared edge = %g, want 1", got)
	}
	if got := sharedEdge(a, c); math.Abs(got-1) > 1e-12 {
		t.Errorf("a|c shared edge = %g, want 1", got)
	}
	if got := sharedEdge(a, d); got != 0 {
		t.Errorf("a|d shared edge = %g, want 0", got)
	}
	if got := sharedEdge(a, e); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("a|e shared edge = %g, want 0.5", got)
	}
	// Symmetry.
	if sharedEdge(b, a) != sharedEdge(a, b) {
		t.Error("sharedEdge must be symmetric")
	}
}

func TestFloorplanFromFLP(t *testing.T) {
	fp, err := FloorplanFromFLP(strings.NewReader(quadFLP), DefaultFLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumCores() != 4 {
		t.Fatalf("NumCores = %d", fp.NumCores())
	}
	if fp.Net.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", fp.Net.NumNodes())
	}
	// Adjacent cores coupled, diagonal not: core0(top-left) and
	// core3(bottom-right) share no edge.
	if g := fp.Net.Conductance(fp.Cores[0], fp.Cores[3]); g != 0 {
		t.Errorf("diagonal conductance = %g, want 0", g)
	}
	if g := fp.Net.Conductance(fp.Cores[0], fp.Cores[1]); g <= 0 {
		t.Error("adjacent cores must be coupled")
	}
	// The network is solvable and lands in a plausible envelope.
	temps, err := fp.Net.SteadyState(fp.PowerVector([]float64{7, 7, 7, 7}))
	if err != nil {
		t.Fatal(err)
	}
	hot := temps[fp.Cores[0]]
	if hot < 45 || hot > 95 {
		t.Errorf("full-load steady state = %.1f C, want a plausible 45-95 C", hot)
	}
}

func TestFloorplanFromBlocksNoCoreNames(t *testing.T) {
	blocks := []Block{
		{Name: "alu", Width: 0.01, Height: 0.01, Left: 0, Bottom: 0},
		{Name: "fpu", Width: 0.01, Height: 0.01, Left: 0.01, Bottom: 0},
	}
	fp, err := FloorplanFromBlocks(blocks, DefaultFLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumCores() != 2 {
		t.Errorf("with no core* names every block should be a core, got %d", fp.NumCores())
	}
}

// Block names that collide with the package nodes, or with each other, and
// geometry whose area overflows are errors, not panics.
func TestFloorplanFromFLPBadBlocks(t *testing.T) {
	cases := map[string]string{
		"spreader":  "core0 0.01 0.01 0 0\nspreader 0.01 0.01 0.01 0",
		"sink":      "sink 0.01 0.01 0 0",
		"duplicate": "core0 0.01 0.01 0 0\ncore0 0.01 0.01 0.01 0",
		"overflow":  "core0 1e200 1e200 0 0",
	}
	for name, in := range cases {
		if _, err := FloorplanFromFLP(strings.NewReader(in), DefaultFLPConfig()); err == nil {
			t.Errorf("%s: expected an error for %q", name, in)
		}
	}
}

func TestFloorplanFromBlocksEmpty(t *testing.T) {
	if _, err := FloorplanFromBlocks(nil, DefaultFLPConfig()); err == nil {
		t.Error("expected error for empty block list")
	}
}

// The .flp-derived quad core can drive the transient solver end to end.
func TestFLPTransient(t *testing.T) {
	fp, err := FloorplanFromFLP(strings.NewReader(quadFLP), DefaultFLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(fp.Net, Euler)
	power := fp.PowerVector([]float64{8, 0, 0, 0})
	for i := 0; i < 5000; i++ {
		if err := s.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	}
	if s.Temperature(fp.Cores[0]) <= s.Temperature(fp.Cores[3]) {
		t.Error("loaded corner should be hotter than the diagonal corner")
	}
}

// FuzzFloorplanFromFLP feeds arbitrary text to the .flp reader. It must never
// panic, and every floorplan it accepts must be a physical RC network:
// positive, finite capacitances, non-negative, finite and symmetric
// conductances, and a positive vertical path from every block to the
// spreader.
func FuzzFloorplanFromFLP(f *testing.F) {
	for _, seed := range []string{
		quadFLP,
		"alu 0.01 0.01 0 0\nfpu 0.01 0.01 0.01 0",
		"core0 0.01 0.01 0 0\nspreader 0.01 0.01 0.01 0",
		"sink 0.01 0.01 0 0",
		"core0 NaN 0.01 0 0",
		"core0 0.01 0.01 Inf 0",
		"core0 1e200 1e200 0 0",
		"core0 1e-200 1e-200 0 0",
		"a 1 1 1e308 0\nb 1 1 1.7e308 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		fp, err := FloorplanFromFLP(strings.NewReader(in), DefaultFLPConfig())
		if err != nil {
			return
		}
		net := fp.Net
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for i, node := range net.nodes {
			if !(node.Capacitance > 0) || !finite(node.Capacitance) {
				t.Fatalf("node %d (%q): capacitance %g", i, node.Name, node.Capacitance)
			}
			if !(node.AmbientConductance >= 0) || !finite(node.AmbientConductance) {
				t.Fatalf("node %d (%q): ambient conductance %g", i, node.Name, node.AmbientConductance)
			}
			for j, g := range net.g[i] {
				if !(g >= 0) || !finite(g) || g != net.g[j][i] {
					t.Fatalf("conductance %d-%d = %g (reverse %g)", i, j, g, net.g[j][i])
				}
			}
			if i != fp.Spreader && i != fp.Sink && !(net.g[i][fp.Spreader] > 0) {
				t.Fatalf("block %d (%q) has no path to the spreader", i, node.Name)
			}
		}
		if len(fp.Cores) == 0 {
			t.Fatal("accepted floorplan has no cores")
		}
	})
}
