package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func reducedOptions(t *testing.T, trace bool) options {
	return options{seed: 5, seconds: 1e-3, trace: trace, work: t.TempDir(), root: ".", reduced: true}
}

// TestEveryMetricPrinted runs each workload at reduced size, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names are
// printed, each with its unit, and that every output check passed.
func TestEveryMetricPrinted(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		setup, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), setup, reducedOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, got.Value)
				}
			}
		}
	}
}

// TestTracedLoopAndReplaysBitIdentical drives quad-core and many-core
// reference runs, learners included, through the traced loop and both
// replays; trace fails unless each reproduces sim.Run exactly.
func TestTracedLoopAndReplaysBitIdentical(t *testing.T) {
	calibrate()
	inputs := []simInput{
		quadCoreInput("mpeg_dec", "linux-ondemand", 1),
		quadCoreInput("face_rec", "ge-qiu", 2),
		quadCoreInput("tachyon", "proposed", 3),
		quadCoreInput("sphinx", "releta", 4),
		manycoreRun{app: "mpegdec", policy: "proposed", agentSeed: manycoreSeeds[0]}.input(),
	}
	var l simLayers
	for _, in := range inputs {
		if err := l.trace(in); err != nil {
			t.Fatal(err)
		}
	}
	m := l.metrics()
	for _, name := range []string{"platform.step_ns", "thermal.step_ns", "sched.tick_ns", "workload.step_ns", "policy.tick_ns", "reliability.push_ns"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
}

// TestReplayDetectsDivergence feeds the thermal and scheduler replays a
// recording with one perturbed input and expects both to notice.
func TestReplayDetectsDivergence(t *testing.T) {
	calibrate()
	in := quadCoreInput("tachyon", "proposed", 3)
	cfg, work, pol, stall, err := in.build()
	if err != nil {
		t.Fatal(err)
	}
	var l simLayers
	_, rec, err := l.tracedRun(cfg, work, pol)
	if err != nil {
		t.Fatal(err)
	}
	rec.corePower[100] += 1e-9
	if err := l.replayThermal(cfg, rec); err == nil {
		t.Error("thermal replay accepted a perturbed power trace")
	}
	_, work, _, _, _ = in.build()
	if err := l.replaySched(cfg, work, rec, stall*2); err == nil {
		t.Error("scheduler replay accepted a wrong decision stall")
	}
}

// TestCorruptedReferenceCounted corrupts one reference of each workload
// and expects the pass to count the mismatch as a failure.
func TestCorruptedReferenceCounted(t *testing.T) {
	ctx := context.Background()

	mc, err := setupManycore(ctx, reducedOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	key := mc.(*manycoreStack).runs[0].key()
	saved := references.Manycore[key]
	references.Manycore[key] = "corrupt"
	ops, err := mc.pass(ctx)
	references.Manycore[key] = saved
	if err != nil || ops.failed == 0 {
		t.Errorf("manycore-32: corrupted digest of %s counted %d failures (err %v)", key, ops.failed, err)
	}

	pa, err := setupPaper(ctx, reducedOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	ps := pa.(*paperStack)
	id := ps.order[0]
	want := map[string]string{}
	for k, v := range ps.want {
		want[k] = v
	}
	want[id] = "corrupt"
	ps.want = want
	if ops, err = ps.pass(ctx); err != nil || ops.failed != 1 {
		t.Errorf("paper-all: corrupted digest of %s counted %d failures (err %v), want 1", id, ops.failed, err)
	}

	ss, err := setupService(ctx, reducedOptions(t, false), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.close()
	ss.docs[0].wantCSV = append([]byte("corrupt,"), ss.docs[0].wantCSV...)
	if ops, err = ss.pass(ctx); err != nil || ops.failed != serviceRounds {
		t.Errorf("service-tournament: corrupted CSV counted %d failures (err %v), want %d", ops.failed, err, serviceRounds)
	}
}
