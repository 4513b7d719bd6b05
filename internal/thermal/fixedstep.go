package thermal

import "fmt"

// Stepper is the common interface of the transient integrators: the
// reference Solver (explicit Euler / RK4), the ImplicitSolver and the
// constant-dt FixedStepper all satisfy it. A Stepper owns the current node
// temperature state.
type Stepper interface {
	// Step advances the network by dt seconds under constant power p.
	Step(dt float64, p []float64) error
	// Temperatures returns the current node temperatures (aliases internal
	// state; callers must not modify it).
	Temperatures() []float64
	// Temperature returns node i's temperature.
	Temperature(i int) float64
	// SetTemperatures overwrites the state vector.
	SetTemperatures(t []float64) error
	// Reset sets every node back to ambient.
	Reset()
}

// Compile-time interface checks for every integrator.
var (
	_ Stepper = (*Solver)(nil)
	_ Stepper = (*ImplicitSolver)(nil)
	_ Stepper = (*FixedStepper)(nil)
)

// FixedStepper integrates a Network with backward Euler at one fixed step
// size, with the whole linear update precomputed at construction. For a
// constant dt the implicit update
//
//	(C/dt + G) T_{n+1} = (C/dt) T_n + P + Gamb*Tamb
//
// is a constant linear map, so instead of an LU solve per step it can be
// collapsed into
//
//	T_{n+1} = A*T_n + B*P + c
//
// with A = M^-1 * diag(C/dt), B = M^-1 and c = M^-1 * (Gamb*Tamb), where
// M = C/dt + G. The constructor factors M once (the same LU the
// ImplicitSolver caches) and back-solves n unit vectors to materialize A and
// B column by column into flat row-major backing; Step is then two dense
// matvecs and performs no allocation. The arithmetic is a fixed sequence of
// float64 operations, so repeated runs from the same initial state are
// bit-identical.
//
// FixedStepper trades O(n^2) memory and an O(n^3) one-time setup for the
// cheapest possible per-step cost; it matches the ImplicitSolver at the same
// dt to rounding error. It is not safe for concurrent use.
type FixedStepper struct {
	net *Network
	dt  float64
	n   int
	// ab interleaves the rows of A and B: row i occupies
	// ab[2*n*i : 2*n*(i+1)], the first n entries being A's row (applied to
	// the temperature vector) and the next n being B's row (applied to the
	// power vector), so one step streams through the matrix memory linearly.
	// The backing may be shared read-only with other steppers of the same
	// (network, dt) configuration (see fixedUpdate).
	ab []float64
	// c is the constant ambient-injection vector (shared like ab).
	c []float64
	// temps is the state; next is the step scratch.
	temps, next []float64
}

// fixedUpdate is the precomputed constant-dt linear map T' = A*T + B*P + c of
// one (Network, dt) configuration. It is immutable after construction, so any
// number of steppers may share one instance concurrently;
// sharedUpdate dedupes construction behind a keyed cache so identical
// configurations pay the O(n^3) factorization once.
type fixedUpdate struct {
	n  int
	ab []float64
	c  []float64
}

// newFixedUpdate factors the system matrix and materializes A, B and c.
func newFixedUpdate(net *Network, dt float64) (*fixedUpdate, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: fixed stepper: dt must be positive, got %g", dt)
	}
	n := net.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("thermal: fixed stepper: network has no nodes")
	}
	f, err := factorize(n, systemMatrix(net, dt))
	if err != nil {
		return nil, err
	}
	u := &fixedUpdate{
		n:  n,
		ab: make([]float64, 2*n*n),
		c:  make([]float64, n),
	}
	// Column j of B is M^-1 e_j; column j of A is (C_j/dt) * that column.
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		f.solve(col, e)
		e[j] = 0
		cj := net.nodes[j].Capacitance / dt
		for i := 0; i < n; i++ {
			u.ab[2*n*i+j] = cj * col[i] // A
			u.ab[2*n*i+n+j] = col[i]    // B
		}
	}
	// c = M^-1 * (Gamb_i * Tamb).
	for i := 0; i < n; i++ {
		e[i] = net.nodes[i].AmbientConductance * net.Ambient()
	}
	f.solve(u.c, e)
	return u, nil
}

// NewFixedStepper builds the precomputed constant-dt update for the network.
// It returns an error for a non-positive dt or a singular system matrix.
// Steppers built for value-identical (network, dt) configurations share one
// precomputed matrix set through the factorization cache, so a thousand
// identical-floorplan runs factor once and stream the same memory.
func NewFixedStepper(net *Network, dt float64) (*FixedStepper, error) {
	u, err := sharedUpdate(net, dt)
	if err != nil {
		return nil, err
	}
	n := u.n
	s := &FixedStepper{
		net:   net,
		dt:    dt,
		n:     n,
		ab:    u.ab,
		c:     u.c,
		temps: make([]float64, n),
		next:  make([]float64, n),
	}
	s.Reset()
	return s, nil
}

// Dt returns the fixed step size the update was precomputed for.
func (s *FixedStepper) Dt() float64 { return s.dt }

// Reset sets every node back to ambient.
func (s *FixedStepper) Reset() {
	for i := range s.temps {
		s.temps[i] = s.net.Ambient()
	}
}

// Temperatures returns the current node temperatures (aliases internal
// state; callers must not modify it).
func (s *FixedStepper) Temperatures() []float64 { return s.temps }

// Temperature returns node i's temperature.
func (s *FixedStepper) Temperature(i int) float64 { return s.temps[i] }

// SetTemperatures overwrites the state vector.
func (s *FixedStepper) SetTemperatures(t []float64) error {
	if len(t) != len(s.temps) {
		return fmt.Errorf("thermal: set temperatures: length %d != node count %d", len(t), len(s.temps))
	}
	copy(s.temps, t)
	return nil
}

// Step advances the network by the fixed step under constant power injection
// p. dt must equal the step size the update was precomputed for; callers
// needing a varying step should use the ImplicitSolver instead. Step
// performs no allocation.
func (s *FixedStepper) Step(dt float64, p []float64) error {
	if dt != s.dt {
		return fmt.Errorf("thermal: fixed stepper: got dt %g, precomputed for %g", dt, s.dt)
	}
	n := s.n
	if len(p) != n {
		return fmt.Errorf("thermal: fixed stepper: power vector length %d != node count %d", len(p), n)
	}
	if n == 6 {
		// The paper's quad-core chip (4 cores + spreader + sink) is the
		// dominant configuration; a fully unrolled kernel with the same
		// accumulation order as the generic loop below is bit-identical and
		// roughly halves the per-step cost.
		s.step6((*[6]float64)(p))
		return nil
	}
	// Reslice to the common length once so the compiler drops the bounds
	// checks inside the matvec loops.
	t, next := s.temps[:n], s.next[:n]
	p = p[:n]
	for i := 0; i < n; i++ {
		row := s.ab[2*n*i : 2*n*i+2*n]
		a, b := row[:n], row[n:2*n]
		// Four independent accumulator chains (A*T and B*p each split over
		// even/odd indices) so the products overlap in the pipeline instead
		// of serializing on one floating-point add chain.
		var sa0, sa1, sb0, sb1 float64
		j := 0
		for ; j+1 < n; j += 2 {
			sa0 += a[j] * t[j]
			sa1 += a[j+1] * t[j+1]
			sb0 += b[j] * p[j]
			sb1 += b[j+1] * p[j+1]
		}
		if j < n {
			sa0 += a[j] * t[j]
			sb0 += b[j] * p[j]
		}
		next[i] = s.c[i] + ((sa0 + sa1) + (sb0 + sb1))
	}
	// Copy element-wise rather than swapping the slice headers: a header
	// store into a heap struct goes through the GC write barrier, which
	// profiles hotter than this short float copy.
	for i := 0; i < n; i++ {
		t[i] = next[i]
	}
	return nil
}

// row6 computes one row of the 6-node update: the fused [A|B] row applied to
// the temperature and power vectors plus the constant term, using the same
// even/odd accumulator split as the generic loop so the result is
// bit-identical to it.
func row6(r *[12]float64, t, p *[6]float64, c float64) float64 {
	sa0 := r[0]*t[0] + r[2]*t[2] + r[4]*t[4]
	sa1 := r[1]*t[1] + r[3]*t[3] + r[5]*t[5]
	sb0 := r[6]*p[0] + r[8]*p[2] + r[10]*p[4]
	sb1 := r[7]*p[1] + r[9]*p[3] + r[11]*p[5]
	return c + ((sa0 + sa1) + (sb0 + sb1))
}

// step6 is the unrolled quad-core (6-node) step.
func (s *FixedStepper) step6(p *[6]float64) {
	t := (*[6]float64)(s.temps)
	c := (*[6]float64)(s.c)
	ab := s.ab
	n0 := row6((*[12]float64)(ab[0:12]), t, p, c[0])
	n1 := row6((*[12]float64)(ab[12:24]), t, p, c[1])
	n2 := row6((*[12]float64)(ab[24:36]), t, p, c[2])
	n3 := row6((*[12]float64)(ab[36:48]), t, p, c[3])
	n4 := row6((*[12]float64)(ab[48:60]), t, p, c[4])
	n5 := row6((*[12]float64)(ab[60:72]), t, p, c[5])
	t[0], t[1], t[2], t[3], t[4], t[5] = n0, n1, n2, n3, n4, n5
}
