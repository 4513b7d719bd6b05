package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/governor"
	"repro/internal/telemetry"
)

// runLearning runs lightApp under the given policy with an epoch log armed
// and returns the result plus the run as logged (nil if the policy emits no
// records).
func runLearning(t *testing.T, cfg RunConfig, pol Policy) (*Result, *telemetry.EpochRun) {
	t.Helper()
	cfg.Epochs = telemetry.NewEpochLog()
	res, err := Run(cfg, lightApp(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != nil && res.Epochs.Policy != pol.Name() {
		t.Errorf("run filed under policy %q, want %q", res.Epochs.Policy, pol.Name())
	}
	return res, res.Epochs
}

// TestLearningSamplerCapturesCurve: logging the proposed policy's epochs
// yields a non-empty curve whose per-core damage attribution matches the
// run's own CoreCyclingStress exactly — every closed thermal cycle is
// charged to some decision — and whose per-record damage accounts for all
// of it but the tail closed after the last epoch, charged to the last
// action.
func TestLearningSamplerCapturesCurve(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.DiscardTrace = true
	res, s := runLearning(t, cfg, &ProposedPolicy{})
	if s == nil || s.Summary == nil {
		t.Fatal("proposed policy logged no finished run")
	}
	pts := s.Points
	if len(pts) == 0 {
		t.Fatal("log recorded no epochs")
	}
	sum := *s.Summary
	if sum.Epochs != len(pts) {
		t.Errorf("summary epochs %d != %d points", sum.Epochs, len(pts))
	}
	if sum.Coverage <= 0 || sum.Coverage > 1 {
		t.Errorf("coverage %v out of (0,1]", sum.Coverage)
	}
	if len(res.CoreCyclingStress) == 0 {
		t.Fatal("result carries no per-core cycling stress")
	}
	if !reflect.DeepEqual(sum.CoreDamage, res.CoreCyclingStress) {
		t.Errorf("attributed damage %v != core cycling stress %v",
			sum.CoreDamage, res.CoreCyclingStress)
	}
	var shares float64
	for _, v := range res.CoreDamageShare {
		shares += v
	}
	if shares != 0 && math.Abs(shares-1) > 1e-9 {
		t.Errorf("damage shares sum to %v, want 1 (or all zeros)", shares)
	}
	var attributed float64
	for _, v := range sum.ActionDamage {
		attributed += v
	}
	var total float64
	for _, v := range sum.CoreDamage {
		total += v
	}
	if math.Abs(attributed-total) > 1e-9*math.Max(1, total) {
		t.Errorf("per-action damage %v does not account for per-core total %v",
			attributed, total)
	}
	// Record k's damage closed while record k-1's action was in force; the
	// tail closed after the last epoch, under the last action.
	var stamped float64
	actions := map[int]float64{}
	for k, e := range pts {
		stamped += e.Damage
		if k > 0 {
			actions[pts[k-1].Action] += e.Damage
		}
	}
	tail := total - stamped
	if tail < -1e-9*math.Max(1, total) {
		t.Fatalf("records carry %v damage, more than the per-core total %v", stamped, total)
	}
	actions[pts[len(pts)-1].Action] += tail
	for a, d := range actions {
		var want float64
		if a < len(sum.ActionDamage) {
			want = sum.ActionDamage[a]
		}
		if math.Abs(d-want) > 1e-9*math.Max(1, total) {
			t.Errorf("action %d: records plus tail give %v, summary %v", a, d, want)
		}
	}
}

// TestLearningSamplingIsObservationOnly pins the bit-identity guarantee:
// the same seed-fixed run with and without an epoch log produces identical
// results (observing must not perturb the policy's RNG or the metric
// pipeline), in both the retained-trace and streaming paths.
func TestLearningSamplingIsObservationOnly(t *testing.T) {
	for _, discard := range []bool{false, true} {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = discard
		plain, err := Run(cfg, lightApp(), &ProposedPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		sampled, s := runLearning(t, cfg, &ProposedPolicy{})
		if s == nil {
			t.Fatal("no run logged")
		}
		// Traces are pointers; compare everything else bit-for-bit via
		// the JSON encoding (shortest-form float64 is exact).
		plain.Trace, plain.PowerTrace = nil, nil
		sampled.Trace, sampled.PowerTrace = nil, nil
		j1, _ := json.Marshal(plain)
		j2, _ := json.Marshal(sampled)
		if string(j1) != string(j2) {
			t.Errorf("discard=%v: sampling changed the result:\n%s\n%s", discard, j1, j2)
		}
	}
}

// TestLearningStressIdenticalAcrossTracePaths: the streaming accumulators
// must attribute exactly what the retained-trace rainflow computes, so
// CoreCyclingStress (and the shares derived from it) are bit-identical
// whether the trace is kept or discarded.
func TestLearningStressIdenticalAcrossTracePaths(t *testing.T) {
	retained := DefaultRunConfig()
	streaming := DefaultRunConfig()
	streaming.DiscardTrace = true
	r1, s1 := runLearning(t, retained, &ProposedPolicy{})
	r2, s2 := runLearning(t, streaming, &ProposedPolicy{})
	if !reflect.DeepEqual(r1.CoreCyclingStress, r2.CoreCyclingStress) {
		t.Errorf("core stress differs across trace paths:\n%v\n%v",
			r1.CoreCyclingStress, r2.CoreCyclingStress)
	}
	if !reflect.DeepEqual(r1.CoreDamageShare, r2.CoreDamageShare) {
		t.Errorf("damage shares differ across trace paths:\n%v\n%v",
			r1.CoreDamageShare, r2.CoreDamageShare)
	}
	if !reflect.DeepEqual(s1.Summary.CoreDamage, s2.Summary.CoreDamage) {
		t.Errorf("attributed damage differs across trace paths:\n%v\n%v",
			s1.Summary.CoreDamage, s2.Summary.CoreDamage)
	}
}

// TestLearningObserverSkipsNonLearners: a policy without a learning agent
// files no run in the epoch log that observes learning, but its result
// still carries the per-core damage surface.
func TestLearningObserverSkipsNonLearners(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.DiscardTrace = true
	cfg.Epochs = telemetry.NewEpochLog()
	res, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != nil || len(cfg.Epochs.Runs()) != 0 {
		t.Error("a non-learning policy filed a run")
	}
	if len(res.CoreCyclingStress) == 0 || len(res.CoreDamageShare) == 0 {
		t.Error("baseline run missing per-core damage surface")
	}
}
