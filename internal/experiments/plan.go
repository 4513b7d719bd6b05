package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Cell is one independently runnable unit of an experiment: a single
// simulation run. Cells of one experiment share no mutable state, so a
// scheduler may execute them in any order or concurrently; assembling their
// outputs in cell order reproduces the same rows bit for bit.
type Cell struct {
	// Key labels the cell for progress reporting and error messages.
	Key string
	// Run executes the cell. The returned row's concrete type depends on
	// the experiment (SuiteRow, runMetrics, ...; see DecodeCellRow).
	Run func(ctx context.Context) (any, error)
}

// Assemble merges per-cell outputs, given in cell order, into the
// experiment's row type. A nil entry is a cell that failed or never ran.
// Experiments whose cells are rows drop it, mirroring suite's
// wrap-and-continue; experiments that reduce several runs into a row
// (normalizing to Linux, averaging over repeats) assemble nil unless every
// cell is present.
type Assemble func(rows []any) any

// planned is one run of an experiment's plan: its key within the experiment
// and the run itself, given the config of the cell executing it.
type planned struct {
	key string
	run func(cfg Config) (any, error)
}

// assembleAs builds an Assemble that collects non-nil cell outputs of type T.
func assembleAs[T any](rows []any) any {
	out := make([]T, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, r.(T))
		}
	}
	return out
}

// complete type-asserts every cell output to T for a reducing assembler,
// reporting false when a cell failed or never ran.
func complete[T any](rows []any) ([]T, bool) {
	out := make([]T, len(rows))
	for i, r := range rows {
		if r == nil {
			return nil, false
		}
		out[i] = r.(T)
	}
	return out, true
}

// runMetrics is the scalar outcome of one simulation run: the cell row of
// the experiments that reduce several runs into one row.
type runMetrics struct {
	AvgTempC               float64
	CyclingMTTF, AgingMTTF float64
	ExecTimeS              float64
	DynamicEnergyJ         float64
}

func metricsOf(r *sim.Result) runMetrics {
	return runMetrics{
		AvgTempC:       r.AvgTempC,
		CyclingMTTF:    r.CyclingMTTF,
		AgingMTTF:      r.AgingMTTF,
		ExecTimeS:      r.ExecTimeS,
		DynamicEnergyJ: r.DynamicEnergyJ,
	}
}

// runScalars executes one run of w under pol for a row that consumes only
// scalar metrics: the run streams them instead of retaining the trace.
func runScalars(cfg Config, w workload.Workload, pol sim.Policy) (*sim.Result, error) {
	rc := cfg.Run
	rc.DiscardTrace = true
	return sim.Run(rc, w, pol)
}

// linuxBaseline plans the Linux ondemand run of appName (data set 1) that a
// reducing experiment compares against.
func linuxBaseline(appName string) planned {
	return planned{appName + "/" + PolicyLinuxOndemand, func(cfg Config) (any, error) {
		r, err := runApp(cfg, appName, workload.Set1, PolicyLinuxOndemand)
		if err != nil {
			return nil, err
		}
		return metricsOf(r), nil
	}}
}

// traceCfg threads a span carried on ctx (the service's per-cell span) into
// the simulation config, so runs executed by this cell nest under it.
func traceCfg(ctx context.Context, cfg Config) Config {
	if tr, span := telemetry.SpanFromContext(ctx); tr != nil {
		cfg.Run.Tracer = tr
		cfg.Run.TraceParent = span
	}
	return cfg
}

// Cells decomposes experiment id under cfg into one cell per simulation run
// plus the assembler that reduces their outputs, in plan order, to the
// experiment's rows. It is the only decomposition of every experiment:
// RunRowsCtx executes it on this process's cores, the job service on its
// worker pool and cluster nodes.
func Cells(cfg Config, id string) ([]Cell, Assemble, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, nil, err
	}
	runs, assemble := e.plan(cfg)
	cells := make([]Cell, len(runs))
	for i, r := range runs {
		cells[i] = Cell{
			Key: id + "/" + r.key,
			Run: func(ctx context.Context) (any, error) { return r.run(traceCfg(ctx, cfg)) },
		}
	}
	return cells, assemble, nil
}

// RunCells executes cells — an experiment's or a tournament's plan — and
// returns their outputs in cell order (nil for a failed or unrun cell) with
// the cell errors joined in cell order, plus ctx's error when cancellation
// left cells unrun. Once ctx is cancelled no further cell starts.
//
// Cells share no state, so they run on min(GOMAXPROCS, len(cells))
// goroutines, and the assembled rows do not depend on that width (nor does
// the rendering of an epoch log, which orders runs by content). The one
// exception is AgentObserver: its "last run" (-save-agent) is defined by
// sequential cell order, so such configs run on one goroutine.
func RunCells(ctx context.Context, cfg Config, cells []Cell) ([]any, error) {
	width := min(runtime.GOMAXPROCS(0), len(cells))
	if cfg.Run.AgentObserver != nil {
		width = 1
	}
	rows := make([]any, len(cells))
	errs := make([]error, len(cells), len(cells)+1)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(cells) {
				return
			}
			if row, err := cells[i].Run(ctx); err != nil {
				errs[i] = err
			} else {
				rows[i] = row
			}
		}
	}
	var wg sync.WaitGroup
	for range width - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if int(next.Load()) < len(cells) {
		errs = append(errs, ctx.Err())
	}
	return rows, errors.Join(errs...)
}

// errUnknown reports an experiment id outside ExperimentNames.
func errUnknown(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentNames())
}
