// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated platform. Each experiment is a
// plan of independent cells, one simulation run each, plus an assembler that
// reduces their outputs to typed rows (Cells), and a Format helper that
// prints the same layout the paper reports. RunRows executes the cells on
// all cores; the cmd/thermsim binary, the job service and the repository's
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

// runApp executes one (app, dataset, policy) combination for a row that
// consumes only scalar metrics.
func runApp(cfg Config, appName string, ds workload.DataSet, policy string) (*sim.Result, error) {
	app, err := workload.ByName(appName, ds)
	if err != nil {
		return nil, err
	}
	pol, err := newPolicy(cfg, policy)
	if err != nil {
		return nil, err
	}
	return runScalars(cfg, app, pol)
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

// experiment is one registry entry: the plan of its runs and the text
// report of its assembled rows.
type experiment struct {
	id     string
	plan   func(Config) ([]planned, Assemble)
	format func(rows any) string
}

// formatAs adapts a typed Format helper to assembled rows.
func formatAs[T any](format func(T) string) func(any) string {
	return func(rows any) string { return format(rows.(T)) }
}

// experimentTable lists every experiment in paper order, followed by the
// repository's own studies. Table 3 and Fig. 9 share the perf/energy grid.
var experimentTable = []experiment{
	{"fig1", fig1Plan, formatAs(FormatFig1)},
	{"table2", table2Plan, formatAs(FormatTable2)},
	{"fig3", fig3Plan, formatAs(FormatFig3)},
	{"fig45", fig45Plan, formatAs(FormatFig45)},
	{"fig6", fig6Plan, formatAs(FormatFig6)},
	{"fig7", fig7Plan, formatAs(FormatFig7)},
	{"fig8", fig8Plan, formatAs(FormatFig8)},
	{"table3", perfEnergyPlan, formatAs(FormatTable3)},
	{"fig9", perfEnergyPlan, formatAs(FormatFig9)},
	{"ablation", ablationPlan, formatAs(FormatAblation)},
	{"seeds", seedStudyPlan, formatAs(FormatSeedStudy)},
	{"manycore", manycorePlan, formatAs(FormatManycore)},
	{"noise", noisePlan, formatAs(FormatNoiseStudy)},
	{"suite", suitePlan, formatAs(FormatSuite)},
	{"concurrent", concurrentPlan, formatAs(FormatConcurrent)},
	{"library", libraryPlan, formatAs(FormatLibraryStudy)},
}

// lookup resolves an experiment id.
func lookup(id string) (experiment, error) {
	for _, e := range experimentTable {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, errUnknown(id)
}

// ExperimentNames lists all experiments, in paper order, followed by the
// repository's own studies.
func ExperimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.id
	}
	return names
}

// Run executes an experiment by id and returns its formatted report.
// Sequential callers that never cancel use this wrapper; long-running
// services pass a cancellable context to RunCtx instead.
func Run(cfg Config, id string) (string, error) {
	return RunCtx(context.Background(), cfg, id)
}

// RunCtx executes an experiment by id under ctx and returns its formatted
// report. Cancellation stops the experiment between cells.
func RunCtx(ctx context.Context, cfg Config, id string) (string, error) {
	rows, err := RunRowsCtx(ctx, cfg, id)
	if err != nil {
		return "", err
	}
	e, _ := lookup(id)
	return e.format(rows), nil
}

// RunRows executes an experiment by id and returns its typed row data (for
// machine-readable output); Table 3 and Fig. 9 share the PerfEnergyCell rows.
func RunRows(cfg Config, id string) (any, error) {
	return RunRowsCtx(context.Background(), cfg, id)
}

// RunRowsCtx is RunRows under a cancellable context. It executes the
// experiment's cells (see RunCells for the width) and assembles them in plan
// order. On error the rows assembled from the cells that succeeded come back
// alongside the errors of the failed ones, joined in cell order.
func RunRowsCtx(ctx context.Context, cfg Config, id string) (any, error) {
	cells, assemble, err := Cells(cfg, id)
	if err != nil {
		return nil, err
	}
	rows, err := RunCells(ctx, cfg, cells)
	return assemble(rows), err
}

// tableWriter builds an aligned text table.
func tableWriter(sb *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(sb, 0, 4, 2, ' ', 0)
}
