package rl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// stepEpoch drives one epoch with a fixed (state, action) visit so tests
// control the greedy policy purely through the Q-table contents.
func stepEpoch(s *EpochHook, epoch int, q *QTable) {
	s.Emit(telemetry.Epoch{Epoch: epoch, TimeS: float64(epoch), Reward: 0.5, Alpha: 0.9, State: epoch % q.NumStates()}, q)
}

// TestLearningConvergesAtFirstEpoch: a greedy policy that never moves from
// the very first observation converges at epoch 1 (the earliest possible
// verdict) exactly when the stability window fills — one epoch earlier it is
// still undecided.
func TestLearningConvergesAtFirstEpoch(t *testing.T) {
	q := NewQTable(3, 2)
	q.Set(0, 1, 1) // fixed greedy: [1 0 0]

	s := NewEpochHook(0, nil)
	for epoch := 1; epoch <= DefaultConvergenceWindow-1; epoch++ {
		stepEpoch(s, epoch, q)
		if got := s.Summary().ConvergeEpoch; got != -1 {
			t.Fatalf("converged at %d after %d stable epochs, want undecided (-1)", got, epoch)
		}
	}
	stepEpoch(s, DefaultConvergenceWindow, q)
	if got := s.Summary().ConvergeEpoch; got != 1 {
		t.Fatalf("converge epoch = %d, want 1", got)
	}
	if sum := s.Summary(); sum.ConvergeEpoch != 1 || sum.Epochs != DefaultConvergenceWindow {
		t.Fatalf("summary %+v, want converge_epoch 1 over %d epochs", sum, DefaultConvergenceWindow)
	}
}

// TestLearningNeverConverges: a greedy policy perturbed every epoch keeps the
// detector from ever firing, and the -1 verdict survives into the summary.
func TestLearningNeverConverges(t *testing.T) {
	q := NewQTable(3, 2)
	s := NewEpochHook(0, nil)
	for epoch := 1; epoch <= 6*DefaultConvergenceWindow; epoch++ {
		// Alternate state 0's argmax between action 0 and action 1.
		q.Set(0, 0, float64(1+epoch%2))
		q.Set(0, 1, float64(2-epoch%2))
		stepEpoch(s, epoch, q)
	}
	if got := s.Summary().ConvergeEpoch; got != -1 {
		t.Fatalf("converge epoch = %d, want -1 (never converged)", got)
	}
	if sum := s.Summary(); sum.ConvergeEpoch != -1 {
		t.Fatalf("summary converge_epoch = %d, want -1", sum.ConvergeEpoch)
	}
}

// TestLearningConvergesAfterLateChange: a greedy flip mid-run resets the
// stability window, so the verdict is the first epoch of the final stable
// stretch, not of the earlier false start.
func TestLearningConvergesAfterLateChange(t *testing.T) {
	q := NewQTable(3, 2)
	s := NewEpochHook(0, nil)
	flipAt := 5
	for epoch := 1; epoch < flipAt; epoch++ {
		stepEpoch(s, epoch, q)
	}
	q.Set(0, 1, 1) // greedy of state 0 flips from 0 to 1
	for epoch := flipAt; epoch < flipAt+DefaultConvergenceWindow; epoch++ {
		stepEpoch(s, epoch, q)
	}
	if got := s.Summary().ConvergeEpoch; got != flipAt {
		t.Fatalf("converge epoch = %d, want %d", got, flipAt)
	}
}

// TestLearningCurvePointContents pins what Emit completes on a record before
// the sink sees it: mean |TD| over the epoch's updates, pending damage
// stamped on exactly one record, coverage and stability from the Q-table,
// and NaN rewards passed through but excluded from the mean.
func TestLearningCurvePointContents(t *testing.T) {
	q := NewQTable(2, 2)
	var pts []telemetry.Epoch
	s := NewEpochHook(0, func(e telemetry.Epoch) { pts = append(pts, e) })
	s.ObserveTD(0.5)
	s.ObserveTD(-1.5)
	s.ObserveTD(math.NaN()) // ignored
	s.ObserveCycleDamage(0, 1, 2.0)
	s.ObserveCycleDamage(1, 1, 1.0)
	s.Emit(telemetry.Epoch{Epoch: 1, TimeS: 10, Reward: math.NaN(), Alpha: 0.87, State: 0, Action: 1}, q)
	q.Set(1, 1, 1) // state 1's greedy action moves
	s.Emit(telemetry.Epoch{Epoch: 2, TimeS: 20, Reward: 0.25, Alpha: 0.76, State: 1, Action: 0}, q)

	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].AbsTD != 1.0 || pts[1].AbsTD != 0 {
		t.Errorf("mean |TD| = %g then %g, want 1 then 0", pts[0].AbsTD, pts[1].AbsTD)
	}
	if pts[0].Damage != 3.0 || pts[1].Damage != 0 {
		t.Errorf("damage attribution: %g then %g, want 3 then 0", pts[0].Damage, pts[1].Damage)
	}
	if pts[0].Coverage != 0.5 || pts[1].Coverage != 1 || pts[0].Stability != 1 || pts[1].Stability != 0.5 {
		t.Errorf("coverage %g, %g and stability %g, %g; want 0.5, 1 and 1, 0.5",
			pts[0].Coverage, pts[1].Coverage, pts[0].Stability, pts[1].Stability)
	}
	if !math.IsNaN(pts[0].Reward) {
		t.Errorf("first reward %g reached the sink, want NaN (the log stores it as 0)", pts[0].Reward)
	}
	sum := s.Summary()
	if sum.MeanReward != 0.25 {
		t.Errorf("mean reward %g, want 0.25 (NaN epoch excluded)", sum.MeanReward)
	}
	if want := []float64{2, 1}; !reflect.DeepEqual(sum.CoreDamage, want) {
		t.Errorf("core damage %v, want %v", sum.CoreDamage, want)
	}
	if want := []float64{2.0 / 3.0, 1.0 / 3.0}; !reflect.DeepEqual(sum.CoreDamageShare, want) {
		t.Errorf("core damage share %v, want %v", sum.CoreDamageShare, want)
	}
	if want := []float64{0, 3}; !reflect.DeepEqual(sum.ActionDamage, want) {
		t.Errorf("action damage %v, want %v", sum.ActionDamage, want)
	}
}

// TestLearningSamplerDisabledZeroAlloc pins the nil-receiver contract: every
// method on a disabled (nil) epoch hook is allocation-free, so policies can
// call them unconditionally on hot paths.
func TestLearningSamplerDisabledZeroAlloc(t *testing.T) {
	var s *EpochHook
	q := NewQTable(4, 3)
	e := telemetry.Epoch{Epoch: 1, TimeS: 1, Reward: 0.5, Alpha: 0.9}
	allocs := testing.AllocsPerRun(1000, func() {
		s.ObserveTD(0.5)
		s.ObserveCycleDamage(1, 2, 0.1)
		s.Emit(e, q)
		s.Finalize()
		_ = s.Summary().ConvergeEpoch
	})
	if allocs != 0 {
		t.Fatalf("disabled hook allocated %.1f per run, want 0", allocs)
	}
}

// TestLearningAgentObserveZeroAllocWithoutSampler pins the agent's hot path:
// Observe with no hook attached stays allocation-free, so the hook machinery
// costs nothing when nothing observes the run.
func TestLearningAgentObserveZeroAllocWithoutSampler(t *testing.T) {
	a := NewAgent(DefaultAgentConfig(4, 3))
	allocs := testing.AllocsPerRun(1000, func() {
		a.Observe(0, 1, 0.5, 2)
		a.EndEpoch()
	})
	if allocs != 0 {
		t.Fatalf("Observe without sampler allocated %.1f per run, want 0", allocs)
	}
}

// TestLearningAgentFeedsSampler: an attached hook sees one TD error per
// Observe, without perturbing the agent's RNG stream (two agents with the
// same seed, one observed and one not, select identical actions).
func TestLearningAgentFeedsSampler(t *testing.T) {
	sampled := NewAgent(DefaultAgentConfig(4, 3))
	plain := NewAgent(DefaultAgentConfig(4, 3))
	var pts []telemetry.Epoch
	s := NewEpochHook(0, func(e telemetry.Epoch) { pts = append(pts, e) })
	sampled.AttachHook(s)
	for i := 0; i < 50; i++ {
		st := i % 4
		as, ap := sampled.SelectAction(st), plain.SelectAction(st)
		if as != ap {
			t.Fatalf("epoch %d: sampled agent selected %d, plain %d — sampling perturbed the RNG", i, as, ap)
		}
		sampled.Observe(st, as, 0.1, (st+1)%4)
		plain.Observe(st, ap, 0.1, (st+1)%4)
		sampled.EndEpoch()
		plain.EndEpoch()
	}
	s.Emit(telemetry.Epoch{Epoch: 1, TimeS: 1, Reward: 0.1, Alpha: sampled.Alpha()}, sampled.Q())
	if len(pts) != 1 || pts[0].AbsTD <= 0 {
		t.Fatalf("hook saw no TD errors: %+v", pts)
	}
}

// TestLearningFinalizeStats: Finalize feeds the process-wide learning-health
// counters exactly once per hook, and convergence bumps the converged
// count alongside.
func TestLearningFinalizeStats(t *testing.T) {
	runs0, conv0, _ := LearningStats()

	q := NewQTable(2, 2)
	s := NewEpochHook(2, nil)
	stepEpoch(s, 1, q)
	stepEpoch(s, 2, q)
	s.Finalize()
	s.Finalize() // idempotent

	runs1, conv1, last1 := LearningStats()
	if runs1 != runs0+1 || conv1 != conv0+1 {
		t.Fatalf("stats moved (%d,%d) -> (%d,%d), want +1/+1", runs0, conv0, runs1, conv1)
	}
	if last1 != 1 {
		t.Fatalf("last converge epoch %d, want 1", last1)
	}

	n := NewEpochHook(2, nil)
	n.Finalize() // observed nothing, never converged
	runs2, conv2, _ := LearningStats()
	if runs2 != runs1+1 || conv2 != conv1 {
		t.Fatalf("unconverged finalize moved stats (%d,%d) -> (%d,%d), want runs+1 only", runs1, conv1, runs2, conv2)
	}
}
