package thermal

import (
	"math"
	"testing"
)

// fixedPowerProfile returns a deterministic, time-varying per-node power
// vector exercising heating, cooling and imbalance across cores.
func fixedPowerProfile(fp *Floorplan, step int, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	for i, c := range fp.Cores {
		w := 2.0 + 6.0*math.Abs(math.Sin(float64(step)/50*(1+float64(i)/4)))
		if (step/200)%2 == 1 && i%2 == 0 {
			w *= 0.25 // periodic cooling phases on even cores
		}
		dst[c] = w
	}
	return dst
}

// TestFixedStepperMatchesImplicit drives the FixedStepper and the
// ImplicitSolver through the same power profile and requires agreement to
// tight tolerance on every node at every step, on both the quad-core and a
// 4x4 manycore floorplan.
func TestFixedStepperMatchesImplicit(t *testing.T) {
	for _, grid := range [][2]int{{2, 2}, {4, 4}} {
		fp := GridFloorplan(grid[0], grid[1], DefaultFloorplanConfig())
		const dt = 0.01
		fast, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatalf("%dx%d: NewFixedStepper: %v", grid[0], grid[1], err)
		}
		ref := NewImplicitSolver(fp.Net)
		p := make([]float64, fp.Net.NumNodes())
		for step := 0; step < 5000; step++ {
			fixedPowerProfile(fp, step, p)
			if err := fast.Step(dt, p); err != nil {
				t.Fatalf("fast step %d: %v", step, err)
			}
			if err := ref.Step(dt, p); err != nil {
				t.Fatalf("ref step %d: %v", step, err)
			}
			for i := range p {
				got, want := fast.Temperature(i), ref.Temperature(i)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%dx%d step %d node %d: fixed %.12f vs implicit %.12f",
						grid[0], grid[1], step, i, got, want)
				}
			}
		}
	}
}

// TestFixedStepperBitIdenticalRepeat requires two runs from the same initial
// state to produce bit-identical temperatures (seed reproducibility depends
// on it).
func TestFixedStepperBitIdenticalRepeat(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	const dt = 0.01
	run := func() []float64 {
		s, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, fp.Net.NumNodes())
		for step := 0; step < 2000; step++ {
			fixedPowerProfile(fp, step, p)
			if err := s.Step(dt, p); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, len(s.Temperatures()))
		copy(out, s.Temperatures())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: run 1 %x vs run 2 %x not bit-identical", i, a[i], b[i])
		}
	}
}

// TestFixedStepperStepErrors covers the argument validation of Step and the
// constructor.
func TestFixedStepperStepErrors(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	s, err := NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.Net.NumNodes())
	if err := s.Step(0.02, p); err == nil {
		t.Error("Step with mismatched dt should fail")
	}
	if err := s.Step(0.01, p[:2]); err == nil {
		t.Error("Step with short power vector should fail")
	}
	if _, err := NewFixedStepper(fp.Net, 0); err == nil {
		t.Error("NewFixedStepper with dt=0 should fail")
	}
	if _, err := NewFixedStepper(NewNetwork(30), 0.01); err == nil {
		t.Error("NewFixedStepper on an empty network should fail")
	}
	if err := s.SetTemperatures(p[:2]); err == nil {
		t.Error("SetTemperatures with wrong length should fail")
	}
}

// stepKernels lists the kernels Step can run on this host, as values of the
// stepper's avx switch: the Go loop always, the AVX kernel where the CPU has
// it.
func stepKernels() []bool {
	if haveAVX {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestFixedStepperAVXMatchesGo steps the AVX kernel and the Go loop side by
// side under a varying power profile and requires every node temperature to
// have the same bits after every step. The grids' node counts (3, 6, 7, 8,
// 11 and 34) cover odd counts, the quad-core's unrolled Go path, one full
// eight-row block, partial blocks and several blocks.
func TestFixedStepperAVXMatchesGo(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this host")
	}
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {1, 5}, {2, 3}, {3, 3}, {4, 8}} {
		fp := GridFloorplan(grid[0], grid[1], DefaultFloorplanConfig())
		const dt = 0.01
		vec, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatal(err)
		}
		scalar.avx = false
		p := make([]float64, fp.Net.NumNodes())
		for step := 0; step < 20000; step++ {
			fixedPowerProfile(fp, step, p)
			if err := vec.Step(dt, p); err != nil {
				t.Fatal(err)
			}
			if err := scalar.Step(dt, p); err != nil {
				t.Fatal(err)
			}
			for i := range p {
				got, want := vec.Temperature(i), scalar.Temperature(i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d (%d nodes) step %d node %d: avx %x vs go %x",
						grid[0], grid[1], len(p), step, i, got, want)
				}
			}
		}
	}
}

// TestFixedStepperSteadyState checks the precomputed update converges to the
// same equilibrium as the network's direct steady-state solve, on the
// quad-core chip and the 4x8 many-core grid, under every kernel.
func TestFixedStepperSteadyState(t *testing.T) {
	cfg := DefaultFloorplanConfig()
	for _, fp := range []*Floorplan{QuadCoreFloorplan(cfg), GridFloorplan(4, 8, cfg)} {
		p := make([]float64, fp.Net.NumNodes())
		for _, c := range fp.Cores {
			p[c] = 8.0
		}
		want, err := fp.Net.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, avx := range stepKernels() {
			s, err := NewFixedStepper(fp.Net, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			s.avx = avx
			for step := 0; step < 40000; step++ {
				if err := s.Step(0.05, p); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Abs(s.Temperature(i)-want[i]) > 1e-6 {
					t.Errorf("%d nodes, avx=%t: node %d: fixed-step equilibrium %.9f, steady state %.9f",
						len(p), avx, i, s.Temperature(i), want[i])
				}
			}
		}
	}
}

// TestFixedStepperStepAllocFree asserts the steady-state step performs zero
// allocations on the quad-core chip and the 4x8 grid under every kernel.
func TestFixedStepperStepAllocFree(t *testing.T) {
	cfg := DefaultFloorplanConfig()
	for _, fp := range []*Floorplan{QuadCoreFloorplan(cfg), GridFloorplan(4, 8, cfg)} {
		p := make([]float64, fp.Net.NumNodes())
		for _, c := range fp.Cores {
			p[c] = 5
		}
		for _, avx := range stepKernels() {
			s, err := NewFixedStepper(fp.Net, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			s.avx = avx
			if allocs := testing.AllocsPerRun(1000, func() {
				if err := s.Step(0.01, p); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%d nodes, avx=%t: FixedStepper.Step allocates %.1f objects per step, want 0",
					len(p), avx, allocs)
			}
		}
	}
}

// BenchmarkFixedStep compares one precomputed constant-dt step against the
// reference integrators on the quad-core network, and times the 34-node
// step of the 4x8 many-core grid. "fixed" is the kernel Step uses on this
// host (AVX where available) and "go" the portable Go loop.
func BenchmarkFixedStep(b *testing.B) {
	const dt = 0.01
	benchStep := func(b *testing.B, fp *Floorplan, avx bool) {
		p := make([]float64, fp.Net.NumNodes())
		for _, c := range fp.Cores {
			p[c] = 6
		}
		s, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			b.Fatal(err)
		}
		s.avx = avx
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	p := make([]float64, fp.Net.NumNodes())
	for _, c := range fp.Cores {
		p[c] = 6
	}
	b.Run("fixed", func(b *testing.B) { benchStep(b, fp, haveAVX) })
	b.Run("go", func(b *testing.B) { benchStep(b, fp, false) })
	b.Run("euler", func(b *testing.B) {
		s := NewSolver(fp.Net, Euler)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("implicit", func(b *testing.B) {
		s := NewImplicitSolver(fp.Net)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	grid := GridFloorplan(4, 8, DefaultFloorplanConfig())
	b.Run("grid4x8/fixed", func(b *testing.B) { benchStep(b, grid, haveAVX) })
	b.Run("grid4x8/go", func(b *testing.B) { benchStep(b, grid, false) })
}

// TestFixedStepperSharesUpdate checks the factorization cache: steppers over
// value-identical configurations share one precomputed update, and a
// different dt does not.
func TestFixedStepperSharesUpdate(t *testing.T) {
	cfg := DefaultFloorplanConfig()
	a := GridFloorplan(3, 3, cfg)
	b := GridFloorplan(3, 3, cfg)
	s1, err := NewFixedStepper(a.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewFixedStepper(b.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.ab[0] != &s2.ab[0] {
		t.Error("two FixedSteppers with value-identical configs should share one cached update")
	}
	s3, err := NewFixedStepper(a.Net, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if &s3.ab[0] == &s1.ab[0] {
		t.Error("different dt must not share a cached update")
	}
}
