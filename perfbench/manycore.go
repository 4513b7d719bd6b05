package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	manycoreRows, manycoreCols = 4, 8
	manycoreThreads            = 48
	// manycoreBaselineRuns is how many linux-ondemand runs of each app a
	// pass makes, beside one proposed run per agent seed. Three keeps the
	// median and 90th-percentile run inside groups of near-equal runs
	// rather than on the edge between two groups.
	manycoreBaselineRuns = 3
)

var (
	manycoreApps = []string{"tachyon", "mpegdec"}
	// manycoreSeeds are the RL agent seeds of the proposed runs; every pass
	// runs each once per app, so a pass does the same work for any seed.
	// refs.json holds a result digest for each run.
	manycoreSeeds = []int64{42, 7, 1001, 90210}
)

type manycoreRun struct {
	app, policy string
	agentSeed   int64
}

// key names the run in refs.json; baselines do not depend on the seed.
func (r manycoreRun) key() string {
	if r.policy == experiments.PolicyProposed {
		return fmt.Sprintf("%s/%s/%d", r.app, r.policy, r.agentSeed)
	}
	return r.app + "/" + r.policy
}

func (r manycoreRun) input() simInput {
	return simInput{key: r.key(), build: func() (sim.RunConfig, workload.Workload, sim.Policy, float64, error) {
		return manycoreInput(r)
	}}
}

// manycoreInput builds the run: apps alternate tachyon and mpeg_dec with 48
// threads and half the iterations, as experiments.Manycore sizes them; the
// proposed controller gets the many-core mapping templates.
func manycoreInput(r manycoreRun) (sim.RunConfig, workload.Workload, sim.Policy, float64, error) {
	cfg := sim.DefaultRunConfig()
	cfg.DiscardTrace = true
	cfg.Platform.GridRows, cfg.Platform.GridCols = manycoreRows, manycoreCols
	cfg.Platform.Sched.NumCores = manycoreRows * manycoreCols
	var spec workload.Spec
	switch r.app {
	case "tachyon":
		spec = workload.TachyonSpec(workload.Set2)
	case "mpegdec":
		spec = workload.MPEGDecSpec(workload.Set2)
	default:
		return cfg, nil, nil, 0, fmt.Errorf("unknown manycore app %q", r.app)
	}
	spec.NumThreads = manycoreThreads
	spec.Iterations /= 2
	work := spec.Generate()
	if r.policy != experiments.PolicyProposed {
		p, err := experiments.NewPolicy(r.policy)
		return cfg, work, p, 0, err
	}
	ctl := core.DefaultConfig()
	ctl.Actions = core.BuildActions(manycoreMappings(cfg.Platform.Sched.NumCores, manycoreThreads),
		[]core.GovernorChoice{
			{Kind: governor.Ondemand},
			{Kind: governor.Powersave},
			{Kind: governor.Userspace, Level: 2},
		})
	ctl.Agent = rl.DefaultAgentConfig(ctl.States.NumStates(), len(ctl.Actions))
	ctl.Agent.Seed = r.agentSeed
	return cfg, work, &sim.ProposedPolicy{Config: &ctl}, ctl.DecisionOverheadS, nil
}

// manycoreMappings are the affinity templates experiments.Manycore gives the
// controller: OS default, an even round-robin spread and a half-chip packing.
func manycoreMappings(cores, threads int) []core.Mapping {
	spread := make([]int, threads)
	half := make([]int, threads)
	for i := range spread {
		spread[i] = i % cores
		half[i] = i % (cores / 2)
	}
	return []core.Mapping{
		{Name: "os-default"},
		{Name: "spread", Slots: spread},
		{Name: "half-chip", Slots: half},
	}
}

type manycoreStack struct {
	runs []manycoreRun
}

// setupManycore sets up manycore-32: a sequence of single sim.Run calls on
// one goroutine, each on the 4x8 grid (32 cores, 34 thermal nodes) with 48
// threads, as a cell of experiments.Manycore scaled to the largest grid the
// scheduler allows. There the dense 34-node thermal stepper dominates and
// leakage is small, so a thermal-kernel change shows here and barely in
// paper-all.
//
// The seed draws the pass's order: per app,
// manycoreBaselineRuns linux-ondemand runs and one proposed run per agent
// seed, shuffled, with the apps alternating. It warms up with one run of
// each (app, policy) pair, the same for every seed.
func setupManycore(ctx context.Context, o options) (stack, error) {
	rng := rand.New(rand.NewSource(o.seed))
	perApp := make([][]manycoreRun, len(manycoreApps))
	for a, app := range manycoreApps {
		for i := 0; i < manycoreBaselineRuns; i++ {
			perApp[a] = append(perApp[a], manycoreRun{app: app, policy: experiments.PolicyLinuxOndemand})
		}
		for _, seed := range manycoreSeeds {
			perApp[a] = append(perApp[a], manycoreRun{app: app, policy: experiments.PolicyProposed, agentSeed: seed})
		}
		rng.Shuffle(len(perApp[a]), func(i, j int) { perApp[a][i], perApp[a][j] = perApp[a][j], perApp[a][i] })
	}
	var runs []manycoreRun
	for i := range perApp[0] {
		for a := range manycoreApps {
			runs = append(runs, perApp[a][i])
		}
	}
	if o.reduced {
		runs = runs[:len(manycoreApps)]
	}
	s := &manycoreStack{runs: runs}
	for _, r := range manycorePairs() {
		if _, err := s.runOne(r); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.key(), err)
		}
	}
	return s, nil
}

func (s *manycoreStack) runOne(r manycoreRun) (*sim.Result, error) {
	cfg, work, pol, _, err := manycoreInput(r)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, work, pol)
}

// pass runs the sequence, checking each result's digest.
func (s *manycoreStack) pass(ctx context.Context) (passOps, error) {
	var ops passOps
	for _, r := range s.runs {
		start := time.Now()
		res, err := s.runOne(r)
		ops.latencyMS = append(ops.latencyMS, float64(time.Since(start).Nanoseconds())/1e6)
		ops.attempted++
		switch {
		case err != nil:
			ops.failed++
			fmt.Fprintln(errLog, "manycore-32:", r.key(), err)
		case resultDigest(res) != references.Manycore[r.key()]:
			ops.failed++
			fmt.Fprintln(errLog, "manycore-32:", r.key(), "result digest differs from the reference")
		}
	}
	return ops, nil
}

// manycorePairs is one run of each (app, policy) pair, the proposed ones with
// the first agent seed.
func manycorePairs() []manycoreRun {
	var runs []manycoreRun
	for _, app := range manycoreApps {
		for _, pol := range []string{experiments.PolicyLinuxOndemand, experiments.PolicyProposed} {
			runs = append(runs, manycoreRun{app: app, policy: pol, agentSeed: manycoreSeeds[0]})
		}
	}
	return runs
}

// layers traces manycorePairs.
func (s *manycoreStack) layers(ctx context.Context, passes []passStats) (map[string]float64, passOps, error) {
	out := passLayers(passes)
	var l simLayers
	var ops passOps
	for _, r := range manycorePairs() {
		ops.attempted++
		if err := l.trace(r.input()); err != nil {
			ops.failed++
			fmt.Fprintln(errLog, "manycore-32:", err)
		}
	}
	for k, v := range l.metrics() {
		out[k] = v
	}
	return out, ops, nil
}

func (s *manycoreStack) close() error { return nil }
