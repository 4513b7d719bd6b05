package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// paperSeeds are the RL agent seeds a run can draw; refs.json holds each
// one's per-experiment row digests.
var paperSeeds = []int64{42, 7, 1001, 90210}

type paperStack struct {
	cfg   experiments.Config
	order []string
	want  map[string]string
	// times collects each experiment's duration over the passes.
	times map[string][]float64
}

// setupPaper sets up paper-all: every experiment at full fidelity,
// sequentially on one goroutine, as `thermsim all` does. On the quad-core,
// leakage, the scheduler, the 6-node thermal kernel and the Platform.Step
// glue share the time, and retained-trace (fig1, fig45) and streaming
// reliability both run. The seed picks the RL agent seed (one of paperSeeds,
// whose row digests are committed) and the order the experiments run in.
func setupPaper(ctx context.Context, o options) (stack, error) {
	rng := rand.New(rand.NewSource(o.seed))
	agentSeed := paperSeeds[rng.Intn(len(paperSeeds))]
	want, ok := references.Paper[fmt.Sprint(agentSeed)]
	if !ok {
		return nil, fmt.Errorf("no reference digests for agent seed %d", agentSeed)
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = agentSeed
	order := experiments.ExperimentNames()
	if o.reduced {
		order = []string{"fig45", "manycore", "concurrent"}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// Warm up on the quick variant of a few experiments, which loads the
	// policy registry, factors the quad-core thermal network and exercises
	// both reliability paths.
	quick := cfg
	quick.Quick = true
	for _, id := range []string{"fig45", "ablation", "table2", "fig6"} {
		if _, err := experiments.RunRowsCtx(ctx, quick, id); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	return &paperStack{cfg: cfg, order: order, want: want, times: map[string][]float64{}}, nil
}

// pass runs every experiment once and checks its rows' digest.
func (s *paperStack) pass(ctx context.Context) (passOps, error) {
	var ops passOps
	for _, id := range s.order {
		start := time.Now()
		digest, err := experimentDigest(ctx, s.cfg, id)
		elapsed := time.Since(start)
		s.times[id] = append(s.times[id], elapsed.Seconds())
		ops.latencyMS = append(ops.latencyMS, float64(elapsed.Nanoseconds())/1e6)
		ops.attempted++
		if err != nil || digest != s.want[id] {
			ops.failed++
		}
	}
	return ops, nil
}

// experimentDigest runs one experiment and digests its canonical JSON rows.
func experimentDigest(ctx context.Context, cfg experiments.Config, id string) (string, error) {
	rows, err := experiments.RunRowsCtx(ctx, cfg, id)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// layers reports each experiment's median time and the simulation layers,
// traced over one run of every application under the deterministic baseline
// and the two learners.
func (s *paperStack) layers(ctx context.Context, passes []passStats) (map[string]float64, passOps, error) {
	out := passLayers(passes)
	for id, ts := range s.times {
		out["experiments."+id+"_s"] = median(ts)
	}
	var l simLayers
	var ops passOps
	for i, app := range workload.AppNames() {
		for _, pol := range []string{experiments.PolicyLinuxOndemand, experiments.PolicyGe, experiments.PolicyProposed, "releta"} {
			ops.attempted++
			if err := l.trace(quadCoreInput(app, pol, s.cfg.Seed+int64(i))); err != nil {
				ops.failed++
				fmt.Fprintln(errLog, "paper-all:", err)
			}
		}
	}
	for k, v := range l.metrics() {
		out[k] = v
	}
	return out, ops, nil
}

func (s *paperStack) close() error { return nil }

// quadCoreInput is one run of app on the paper's quad-core under pol, with
// the scalar-only streaming metrics the experiment rows use. Learners get an
// explicit configuration so the scheduler replay knows their decision stall.
func quadCoreInput(app, pol string, agentSeed int64) simInput {
	return simInput{
		key: app + "/" + pol,
		build: func() (sim.RunConfig, workload.Workload, sim.Policy, float64, error) {
			cfg := sim.DefaultRunConfig()
			cfg.DiscardTrace = true
			work, err := workload.ByName(app, workload.Set1)
			if err != nil {
				return cfg, nil, nil, 0, err
			}
			p, stall, err := referencePolicy(pol, agentSeed)
			return cfg, work, p, stall, err
		},
	}
}

// referencePolicy builds a policy for a traced reference run, with its
// decision stall.
func referencePolicy(name string, agentSeed int64) (sim.Policy, float64, error) {
	switch name {
	case experiments.PolicyProposed:
		ctl := core.DefaultConfig()
		ctl.Agent.Seed = agentSeed
		return &sim.ProposedPolicy{Config: &ctl}, ctl.DecisionOverheadS, nil
	case "releta":
		rc := policy.DefaultReLeTAConfig()
		return &policy.ReLeTA{Config: &rc, Seed: agentSeed}, rc.DecisionOverheadS, nil
	default:
		p, err := experiments.NewPolicy(name)
		return p, 0, err
	}
}
