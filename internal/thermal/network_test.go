package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKelvinCelsiusRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		return math.Abs(Celsius(Kelvin(c))-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddNodeValidation(t *testing.T) {
	n := NewNetwork(25)
	if _, err := n.AddNode(Node{Name: "a", Capacitance: 0}); err == nil {
		t.Error("expected error for zero capacitance")
	}
	if _, err := n.AddNode(Node{Name: "a", Capacitance: -1}); err == nil {
		t.Error("expected error for negative capacitance")
	}
	if _, err := n.AddNode(Node{Name: "a", Capacitance: 1, AmbientConductance: -0.1}); err == nil {
		t.Error("expected error for negative ambient conductance")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := n.AddNode(Node{Name: "a", Capacitance: bad}); err == nil {
			t.Errorf("expected error for capacitance %g", bad)
		}
		if _, err := n.AddNode(Node{Name: "a", Capacitance: 1, AmbientConductance: bad}); err == nil {
			t.Errorf("expected error for ambient conductance %g", bad)
		}
	}
	if _, err := n.AddNode(Node{Name: "a", Capacitance: 1}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := n.AddNode(Node{Name: "a", Capacitance: 1}); err == nil {
		t.Error("expected error for duplicate name")
	}
	if n.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", n.NumNodes())
	}
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork(25)
	a := n.MustAddNode(Node{Name: "a", Capacitance: 1, AmbientConductance: 1})
	b := n.MustAddNode(Node{Name: "b", Capacitance: 1})
	if err := n.Connect(a, a, 1); err == nil {
		t.Error("expected error for self connection")
	}
	if err := n.Connect(a, 5, 1); err == nil {
		t.Error("expected error for out-of-range index")
	}
	if err := n.Connect(a, b, -1); err == nil {
		t.Error("expected error for negative conductance")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if err := n.Connect(a, b, bad); err == nil {
			t.Errorf("expected error for conductance %g", bad)
		}
	}
	if err := n.Connect(a, b, 2.5); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if g := n.Conductance(a, b); g != 2.5 {
		t.Errorf("Conductance(a,b) = %g, want 2.5", g)
	}
	if g := n.Conductance(b, a); g != 2.5 {
		t.Errorf("Conductance(b,a) = %g, want 2.5 (symmetric)", g)
	}
}

func TestNodeIndexLookup(t *testing.T) {
	n := NewNetwork(25)
	n.MustAddNode(Node{Name: "x", Capacitance: 1, AmbientConductance: 1})
	i, ok := n.NodeIndex("x")
	if !ok || i != 0 {
		t.Errorf("NodeIndex(x) = %d, %v; want 0, true", i, ok)
	}
	if _, ok := n.NodeIndex("missing"); ok {
		t.Error("NodeIndex(missing) should not be found")
	}
	if name := n.NodeName(0); name != "x" {
		t.Errorf("NodeName(0) = %q, want x", name)
	}
}

// Single node with ambient conductance: steady state T = Tamb + P/G.
func TestSteadyStateSingleNode(t *testing.T) {
	n := NewNetwork(30)
	n.MustAddNode(Node{Name: "a", Capacitance: 5, AmbientConductance: 2})
	temps, err := n.SteadyState([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	want := 30 + 10.0/2.0
	if math.Abs(temps[0]-want) > 1e-9 {
		t.Errorf("steady state = %g, want %g", temps[0], want)
	}
}

// Two nodes in series: a --(g1)-- b --(gamb)-- ambient.
func TestSteadyStateSeries(t *testing.T) {
	n := NewNetwork(20)
	a := n.MustAddNode(Node{Name: "a", Capacitance: 1})
	b := n.MustAddNode(Node{Name: "b", Capacitance: 1, AmbientConductance: 4})
	n.MustConnect(a, b, 2)
	temps, err := n.SteadyState([]float64{8, 0})
	if err != nil {
		t.Fatal(err)
	}
	// All 8 W flow a->b->ambient: Tb = 20 + 8/4 = 22, Ta = 22 + 8/2 = 26.
	if math.Abs(temps[b]-22) > 1e-9 {
		t.Errorf("Tb = %g, want 22", temps[b])
	}
	if math.Abs(temps[a]-26) > 1e-9 {
		t.Errorf("Ta = %g, want 26", temps[a])
	}
}

func TestSteadyStateSingular(t *testing.T) {
	n := NewNetwork(20)
	n.MustAddNode(Node{Name: "floating", Capacitance: 1})
	if _, err := n.SteadyState([]float64{1}); err == nil {
		t.Error("expected singular-matrix error for node with no ambient path")
	}
}

func TestSteadyStatePowerLengthMismatch(t *testing.T) {
	n := NewNetwork(20)
	n.MustAddNode(Node{Name: "a", Capacitance: 1, AmbientConductance: 1})
	if _, err := n.SteadyState([]float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

// Zero power: steady state equals ambient everywhere.
func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	temps, err := fp.Net.SteadyState(make([]float64, fp.Net.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range temps {
		if math.Abs(v-fp.Net.Ambient()) > 1e-6 {
			t.Errorf("node %d: %g, want ambient %g", i, v, fp.Net.Ambient())
		}
	}
}

// Property: steady-state temperatures are monotone in injected power.
func TestSteadyStateMonotoneInPower(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	f := func(p0, p1 uint8) bool {
		lo := float64(p0) / 16
		hi := lo + float64(p1)/16
		pv := fp.PowerVector([]float64{lo, lo, lo, lo})
		tLo, err := fp.Net.SteadyState(pv)
		if err != nil {
			return false
		}
		pv = fp.PowerVector([]float64{hi, hi, hi, hi})
		tHi, err := fp.Net.SteadyState(pv)
		if err != nil {
			return false
		}
		for i := range tLo {
			if tHi[i] < tLo[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: superposition. The temperature *rise* above ambient is linear in
// power for a linear RC network.
func TestSteadyStateSuperposition(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	amb := fp.Net.Ambient()
	rise := func(core []float64) []float64 {
		temps, err := fp.Net.SteadyState(fp.PowerVector(core))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(temps))
		for i := range temps {
			out[i] = temps[i] - amb
		}
		return out
	}
	a := rise([]float64{5, 0, 0, 0})
	b := rise([]float64{0, 0, 3, 0})
	ab := rise([]float64{5, 0, 3, 0})
	for i := range ab {
		if math.Abs(ab[i]-(a[i]+b[i])) > 1e-8 {
			t.Errorf("node %d: rise(a+b)=%g, rise(a)+rise(b)=%g", i, ab[i], a[i]+b[i])
		}
	}
}

func TestMaxStableStepPositive(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	s := fp.Net.MaxStableStep()
	if s <= 0 {
		t.Errorf("MaxStableStep = %g, want > 0", s)
	}
	// Core node dominates: tau = C/(Gspreader + 2*Glateral).
	cfg := DefaultFloorplanConfig()
	want := cfg.CoreCapacitance / (cfg.CoreToSpreader + 2*cfg.CoreToCore)
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("MaxStableStep = %g, want %g", s, want)
	}
}

func TestMaxStableStepUnconnected(t *testing.T) {
	n := NewNetwork(20)
	n.MustAddNode(Node{Name: "a", Capacitance: 1})
	if s := n.MaxStableStep(); s != 1 {
		t.Errorf("MaxStableStep with no conductances = %g, want fallback 1", s)
	}
}

func TestQuadCoreFloorplanTopology(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	if fp.Net.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", fp.Net.NumNodes())
	}
	if fp.NumCores() != 4 {
		t.Fatalf("NumCores = %d, want 4", fp.NumCores())
	}
	cfg := DefaultFloorplanConfig()
	for _, c := range fp.Cores {
		if g := fp.Net.Conductance(c, fp.Spreader); g != cfg.CoreToSpreader {
			t.Errorf("core %d -> spreader conductance = %g, want %g", c, g, cfg.CoreToSpreader)
		}
	}
	if g := fp.Net.Conductance(fp.Spreader, fp.Sink); g != cfg.SpreaderToSink {
		t.Errorf("spreader -> sink conductance = %g, want %g", g, cfg.SpreaderToSink)
	}
	// Diagonal cores are NOT directly connected.
	if g := fp.Net.Conductance(fp.Cores[0], fp.Cores[3]); g != 0 {
		t.Errorf("diagonal cores connected with g=%g, want 0", g)
	}
	if g := fp.Net.Conductance(fp.Cores[0], fp.Cores[1]); g != cfg.CoreToCore {
		t.Errorf("adjacent cores conductance = %g, want %g", g, cfg.CoreToCore)
	}
}

func TestPowerVector(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	p := fp.PowerVector([]float64{1, 2, 3, 4})
	for i, c := range fp.Cores {
		if p[c] != float64(i+1) {
			t.Errorf("p[core%d] = %g, want %d", i, p[c], i+1)
		}
	}
	if p[fp.Spreader] != 0 || p[fp.Sink] != 0 {
		t.Error("non-core nodes should receive zero power")
	}
}

func TestCoreTemperatures(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	nodeTemps := make([]float64, fp.Net.NumNodes())
	for i, c := range fp.Cores {
		nodeTemps[c] = float64(40 + i)
	}
	var out [4]float64
	fp.CoreTemperatures(out[:], nodeTemps)
	for i := range out {
		if out[i] != float64(40+i) {
			t.Errorf("core %d temperature = %g, want %d", i, out[i], 40+i)
		}
	}
}

// Calibration check: the defaults should give paper-like temperature ranges.
func TestFloorplanCalibration(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	// Fully loaded chip: ~8 W per core should put cores around 70-80 C.
	temps, err := fp.Net.SteadyState(fp.PowerVector([]float64{8, 8, 8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	hot := temps[fp.Cores[0]]
	if hot < 60 || hot > 85 {
		t.Errorf("full-load core temperature = %.1f C, want 60-85 C", hot)
	}
	// Idle chip: ~0.8 W per core should stay below 40 C.
	temps, err = fp.Net.SteadyState(fp.PowerVector([]float64{0.8, 0.8, 0.8, 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	idle := temps[fp.Cores[0]]
	if idle < 30 || idle > 40 {
		t.Errorf("idle core temperature = %.1f C, want 30-40 C", idle)
	}
}

func TestGridFloorplanTopology(t *testing.T) {
	cfg := DefaultFloorplanConfig()
	fp := GridFloorplan(4, 4, cfg)
	if fp.NumCores() != 16 {
		t.Fatalf("NumCores = %d, want 16", fp.NumCores())
	}
	if fp.Net.NumNodes() != 18 {
		t.Fatalf("NumNodes = %d, want 18 (16 cores + spreader + sink)", fp.Net.NumNodes())
	}
	// Interior core 5 (row 1, col 1) has 4 lateral neighbours.
	neighbours := 0
	for _, c := range fp.Cores {
		if c != fp.Cores[5] && fp.Net.Conductance(fp.Cores[5], c) > 0 {
			neighbours++
		}
	}
	if neighbours != 4 {
		t.Errorf("interior core has %d lateral neighbours, want 4", neighbours)
	}
	// Corner core 0 has 2.
	neighbours = 0
	for _, c := range fp.Cores {
		if c != fp.Cores[0] && fp.Net.Conductance(fp.Cores[0], c) > 0 {
			neighbours++
		}
	}
	if neighbours != 2 {
		t.Errorf("corner core has %d lateral neighbours, want 2", neighbours)
	}
	// Every core is tied to the spreader.
	for i, c := range fp.Cores {
		if fp.Net.Conductance(c, fp.Spreader) != cfg.CoreToSpreader {
			t.Errorf("core %d not connected to spreader", i)
		}
	}
}

func TestGridFloorplanScaling(t *testing.T) {
	cfg := DefaultFloorplanConfig()
	// Per-core steady-state temperature under uniform load should stay
	// comparable across grid sizes thanks to package scaling.
	steady := func(rows, cols int) float64 {
		fp := GridFloorplan(rows, cols, cfg)
		perCore := make([]float64, fp.NumCores())
		for i := range perCore {
			perCore[i] = 6.0
		}
		temps, err := fp.Net.SteadyState(fp.PowerVector(perCore))
		if err != nil {
			t.Fatal(err)
		}
		return temps[fp.Cores[0]]
	}
	quad := steady(2, 2)
	many := steady(4, 4)
	if math.Abs(quad-many) > 3 {
		t.Errorf("per-core steady state diverges across grid sizes: 2x2 %.1f C vs 4x4 %.1f C", quad, many)
	}
}

func TestGridFloorplanValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimensions")
		}
	}()
	GridFloorplan(0, 4, DefaultFloorplanConfig())
}

func TestQuadCoreIsGrid2x2(t *testing.T) {
	a := QuadCoreFloorplan(DefaultFloorplanConfig())
	b := GridFloorplan(2, 2, DefaultFloorplanConfig())
	if a.Net.NumNodes() != b.Net.NumNodes() || a.NumCores() != b.NumCores() {
		t.Error("QuadCoreFloorplan must be the 2x2 grid")
	}
}
