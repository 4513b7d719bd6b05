// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated platform. Each experiment has a
// function returning typed rows plus a Format helper that prints the same
// layout the paper reports. The cmd/thermsim binary and the repository's
// benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Run is the base simulation configuration shared by every run.
	Run sim.RunConfig
	// Quick shrinks sweeps to a representative subset (used by unit tests
	// and smoke runs).
	Quick bool
	// Repeats averages learning-sensitive sweeps (Fig. 7) over this many
	// RL seeds; 0 means the default of 3 (1 in Quick mode).
	Repeats int
	// Seed, when nonzero, overrides the RL agent's base action-selection
	// seed (the package default of 42). The job service derives a distinct
	// per-job seed from the submitted base seed so resubmitting a spec is
	// bit-identical while distinct campaigns decorrelate.
	Seed int64
	// WarmStart, when non-nil, seeds the proposed controller of every run
	// with a previously learned Q-table (adopted via rl.Agent.AdoptTable)
	// instead of a zero table. Deterministic baselines are unaffected.
	WarmStart *rl.QTable
	// WarmStartAlpha is the learning rate adopted alongside WarmStart;
	// <= 0 selects the agent's AlphaExp.
	WarmStartAlpha float64
	// CampaignJSON, when non-empty, is the declarative tournament document
	// (the experiments.json spec) for the campaign planner. It is opaque
	// bytes here so the fixed planner signature func(Config, id) can carry
	// a tournament through every execution path — standalone CLI, pooled
	// submission, journal-recovery replanning and cluster cell dispatch —
	// without this package depending on the campaign engine.
	CampaignJSON []byte
	// WarmCheckpoint is the raw resolved warm-start checkpoint payload, for
	// policies whose learning state is not a proposed-controller Q-table
	// (the campaign engine routes it to the registered policy that owns its
	// kind). WarmStart above remains the decoded table for the proposed
	// controller.
	WarmCheckpoint []byte
	// LearningCurves, when non-nil, collects every sampled run's learning
	// curve with its full cell coordinates (policy, workload, seed,
	// repeat). Tournament cells always sample and deposit here; plain
	// experiment runs sample through Run.LearningObserver instead, which
	// only carries policy and workload names.
	LearningCurves *rl.CurveSet
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config {
	return Config{Run: sim.DefaultRunConfig()}
}

// repeats resolves the effective repeat count.
func (c Config) repeats() int {
	if c.Repeats > 0 {
		return c.Repeats
	}
	if c.Quick {
		return 1
	}
	return 3
}

// Policy names accepted by NewPolicy, in the order the paper's tables list
// them.
const (
	PolicyLinuxOndemand  = "linux-ondemand"
	PolicyLinuxPowersave = "linux-powersave"
	PolicyLinux24        = "linux-2.4GHz"
	PolicyLinux34        = "linux-3.4GHz"
	PolicyGe             = "ge-qiu"
	PolicyGeModified     = "ge-qiu-modified"
	PolicyThrottle       = "reactive-throttle"
	PolicyProposed       = "proposed"
)

// NewPolicy builds a fresh policy instance by name from the policy registry
// (which holds the table policies above plus the zoo's additional learners).
// Policies are stateful, so a new instance is required per run.
func NewPolicy(name string) (sim.Policy, error) {
	return policy.New(name, policy.Options{})
}

// newPolicy builds the policy for one run, threading the config's RL base
// seed and warm-start table into the proposed controller (every other
// policy is deterministic, so neither affects the baselines).
func newPolicy(cfg Config, name string) (sim.Policy, error) {
	p, err := NewPolicy(name)
	if err != nil {
		return p, err
	}
	if pp, ok := p.(*sim.ProposedPolicy); ok {
		configureProposed(cfg, pp)
	}
	return p, nil
}

// configureProposed threads the config's RL base seed and warm-start state
// into a hand-built proposed policy. A policy whose controller config the
// caller already pinned (parameter sweeps) is left untouched, as is the
// default when there is nothing to thread.
func configureProposed(cfg Config, pp *sim.ProposedPolicy) {
	if pp.Config != nil || (cfg.Seed == 0 && cfg.WarmStart == nil) {
		return
	}
	ctl := core.DefaultConfig()
	if cfg.Seed != 0 {
		ctl.Agent.Seed = cfg.Seed
	}
	ctl.WarmStart = cfg.WarmStart
	ctl.WarmStartAlpha = cfg.WarmStartAlpha
	pp.Config = &ctl
}

// PolicyFor is the exported form of newPolicy: a fresh policy instance for
// one run with the config's RL seed and warm-start state threaded through.
// The job service's tests and custom planners use it to run cells that
// honor a warm_start submission.
func PolicyFor(cfg Config, name string) (sim.Policy, error) {
	return newPolicy(cfg, name)
}

// agentSeed resolves the base RL seed for runners that construct the
// proposed controller's config by hand (the seed study).
func (c Config) agentSeed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return core.DefaultConfig().Agent.Seed
}

// runApp executes one (app, dataset, policy) combination.
func runApp(cfg Config, appName string, ds workload.DataSet, policy string) (*sim.Result, error) {
	app, err := workload.ByName(appName, ds)
	if err != nil {
		return nil, err
	}
	pol, err := newPolicy(cfg, policy)
	if err != nil {
		return nil, err
	}
	// Row experiments consume only the scalar metrics, so the run streams
	// them instead of retaining the oracle traces.
	rc := cfg.Run
	rc.DiscardTrace = true
	return sim.Run(rc, app, pol)
}

// scenarioApps parses "mpegdec-tachyon-mpegenc" into its applications.
func scenarioApps(scenario string, ds workload.DataSet) (*workload.Sequence, error) {
	parts := strings.Split(scenario, "-")
	apps := make([]*workload.Application, 0, len(parts))
	for _, p := range parts {
		app, err := workload.ByName(p, ds)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", scenario, err)
		}
		apps = append(apps, app)
	}
	return workload.NewSequence(apps...), nil
}

// Names of all experiments, in paper order, followed by the repository's
// ablation study.
func ExperimentNames() []string {
	return []string{"fig1", "table2", "fig3", "fig45", "fig6", "fig7", "fig8", "table3", "fig9", "ablation", "seeds", "manycore", "noise", "suite", "concurrent", "library"}
}

// Run executes an experiment by id and returns its formatted report.
// Sequential callers that never cancel use this wrapper; long-running
// services pass a cancellable context to RunCtx instead.
func Run(cfg Config, id string) (string, error) {
	return RunCtx(context.Background(), cfg, id)
}

// RunCtx executes an experiment by id under ctx and returns its formatted
// report. Campaign-shaped experiments (suite, table2, seeds, concurrent)
// observe cancellation between cells; the remaining single-shot experiments
// run to completion.
func RunCtx(ctx context.Context, cfg Config, id string) (string, error) {
	switch id {
	case "fig1":
		r, err := Fig1(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig1(r), nil
	case "table2":
		r, err := Table2(ctx, cfg)
		if err != nil {
			return "", err
		}
		return FormatTable2(r), nil
	case "fig3":
		r, err := Fig3(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig3(r), nil
	case "fig45":
		r, err := Fig45(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig45(r), nil
	case "fig6":
		r, err := Fig6(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig6(r), nil
	case "fig7":
		r, err := Fig7(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig7(r), nil
	case "fig8":
		r, err := Fig8(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig8(r), nil
	case "table3":
		r, err := PerfEnergyGrid(cfg)
		if err != nil {
			return "", err
		}
		return FormatTable3(r), nil
	case "fig9":
		r, err := PerfEnergyGrid(cfg)
		if err != nil {
			return "", err
		}
		return FormatFig9(r), nil
	case "ablation":
		r, err := Ablation(cfg)
		if err != nil {
			return "", err
		}
		return FormatAblation(r), nil
	case "seeds":
		r, err := SeedStudy(ctx, cfg)
		if err != nil {
			return "", err
		}
		return FormatSeedStudy(r), nil
	case "manycore":
		r, err := Manycore(cfg)
		if err != nil {
			return "", err
		}
		return FormatManycore(r), nil
	case "noise":
		r, err := NoiseStudy(cfg)
		if err != nil {
			return "", err
		}
		return FormatNoiseStudy(r), nil
	case "suite":
		r, err := Suite(ctx, cfg)
		if err != nil {
			return "", err
		}
		return FormatSuite(r), nil
	case "concurrent":
		r, err := Concurrent(ctx, cfg)
		if err != nil {
			return "", err
		}
		return FormatConcurrent(r), nil
	case "library":
		r, err := LibraryStudy(cfg)
		if err != nil {
			return "", err
		}
		return FormatLibraryStudy(r), nil
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentNames())
	}
}

// RunRows executes an experiment by id and returns its typed row data (for
// machine-readable output); Table 3 and Fig. 9 share the PerfEnergyGrid rows.
func RunRows(cfg Config, id string) (any, error) {
	return RunRowsCtx(context.Background(), cfg, id)
}

// RunRowsCtx is RunRows under a cancellable context.
func RunRowsCtx(ctx context.Context, cfg Config, id string) (any, error) {
	switch id {
	case "fig1":
		return Fig1(cfg)
	case "table2":
		return Table2(ctx, cfg)
	case "fig3":
		return Fig3(cfg)
	case "fig45":
		return Fig45(cfg)
	case "fig6":
		return Fig6(cfg)
	case "fig7":
		return Fig7(cfg)
	case "fig8":
		return Fig8(cfg)
	case "table3", "fig9":
		return PerfEnergyGrid(cfg)
	case "ablation":
		return Ablation(cfg)
	case "seeds":
		return SeedStudy(ctx, cfg)
	case "manycore":
		return Manycore(cfg)
	case "noise":
		return NoiseStudy(cfg)
	case "suite":
		return Suite(ctx, cfg)
	case "concurrent":
		return Concurrent(ctx, cfg)
	case "library":
		return LibraryStudy(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentNames())
	}
}

// tableWriter builds an aligned text table.
func tableWriter(sb *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(sb, 0, 4, 2, ' ', 0)
}
