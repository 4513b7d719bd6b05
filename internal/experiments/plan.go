package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/telemetry"
)

// Cell is one independently runnable unit of an experiment. Cells of one
// experiment share no mutable state, so a scheduler may execute them in any
// order or concurrently; assembling their outputs in cell order reproduces
// the sequential runner's rows bit for bit.
type Cell struct {
	// Key labels the cell for progress reporting and error messages.
	Key string
	// Run executes the cell. The returned row's concrete type depends on
	// the experiment (SuiteRow, Table2Cell, ...).
	Run func(ctx context.Context) (any, error)
}

// Assemble merges per-cell outputs, given in cell order, into the
// experiment's row type. Nil entries (skipped or failed cells) are dropped,
// mirroring the sequential wrap-and-continue behaviour of Suite.
type Assemble func(rows []any) any

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

// traceCfg threads a span carried on ctx (the service's per-cell span) into
// the simulation config, so runs executed by this cell nest under it.
func traceCfg(ctx context.Context, cfg Config) Config {
	if tr, span := telemetry.SpanFromContext(ctx); tr != nil {
		cfg.Run.Tracer = tr
		cfg.Run.TraceParent = span
	}
	return cfg
}

// Cells decomposes experiment id under cfg into independently runnable
// cells plus the assembler that merges their outputs. Campaign-shaped
// experiments fan out per cell — suite and table2 per (app, policy) run,
// concurrent per (mix, policy), seeds per application — while the remaining
// single-shot experiments are one cell executing RunRowsCtx.
func Cells(cfg Config, id string) ([]Cell, Assemble, error) {
	switch id {
	case "suite":
		plan := suiteCells(cfg)
		cells := make([]Cell, len(plan))
		for i, c := range plan {
			c := c
			cells[i] = Cell{
				Key: fmt.Sprintf("suite/%s/%s", c.App, c.Policy),
				Run: func(ctx context.Context) (any, error) { return runSuiteCell(traceCfg(ctx, cfg), c) },
			}
		}
		return cells, assembleAs[SuiteRow], nil
	case "table2":
		plan := table2Cells(cfg)
		cells := make([]Cell, len(plan))
		for i, c := range plan {
			c := c
			cells[i] = Cell{
				Key: fmt.Sprintf("table2/%s/%v/%s", c.App, c.DataSet, c.Policy),
				Run: func(ctx context.Context) (any, error) { return runTable2Cell(traceCfg(ctx, cfg), c) },
			}
		}
		return cells, assembleAs[Table2Cell], nil
	case "seeds":
		apps, seeds := seedStudyApps(cfg)
		cells := make([]Cell, len(apps))
		for i, app := range apps {
			app := app
			cells[i] = Cell{
				Key: "seeds/" + app,
				Run: func(ctx context.Context) (any, error) { return runSeedStudyCell(ctx, traceCfg(ctx, cfg), app, seeds) },
			}
		}
		return cells, assembleAs[SeedStudyRow], nil
	case "concurrent":
		plan := concurrentCells(cfg)
		cells := make([]Cell, len(plan))
		for i, c := range plan {
			c := c
			cells[i] = Cell{
				Key: fmt.Sprintf("concurrent/%s+%s/%s", c.Mix[0], c.Mix[1], c.Policy),
				Run: func(ctx context.Context) (any, error) { return runConcurrentCell(traceCfg(ctx, cfg), c) },
			}
		}
		return cells, assembleAs[ConcurrentRow], nil
	default:
		if !slices.Contains(ExperimentNames(), id) {
			return nil, nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentNames())
		}
		cell := Cell{
			Key: id,
			Run: func(ctx context.Context) (any, error) { return RunRowsCtx(ctx, traceCfg(ctx, cfg), id) },
		}
		assemble := func(rows []any) any {
			if len(rows) == 1 && rows[0] != nil {
				return rows[0]
			}
			return nil
		}
		return []Cell{cell}, assemble, nil
	}
}
