package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// setupFunc builds the stack one benchmark run measures: everything before
// the timed passes, that is building the stack, generating the inputs from
// the seed and warming up. It is timed and repeated (setupRepeats), and the
// last stack built is the one measured.
type setupFunc func(ctx context.Context, o options) (stack, error)

// stack is one set-up workload.
type stack interface {
	// pass runs one timed pass over the generated inputs.
	pass(ctx context.Context) (passOps, error)
	// layers runs the traced measurements after the timed passes and
	// returns the per-layer metrics this workload exercises, plus the
	// operations (output checks) it attempted and failed.
	layers(ctx context.Context, passes []passStats) (map[string]float64, passOps, error)
	close() error
}

// passOps is what one pass did: a latency per job and the operations it
// attempted and failed (errors, rejected or failed jobs and cells, outputs
// that did not match their reference).
type passOps struct {
	latencyMS         []float64
	attempted, failed int64
}

func (a *passOps) merge(b passOps) {
	a.latencyMS = append(a.latencyMS, b.latencyMS...)
	a.attempted += b.attempted
	a.failed += b.failed
}

// passStats is one timed pass as measured from outside.
type passStats struct {
	ops                 passOps
	wallS, cpuS, heapMB float64
	// Counter deltas of the process-wide simulation metrics.
	ticks, runs, cycles float64
	allocBytes          float64
}

const setupRepeats = 5

var workloads = map[string]setupFunc{
	"paper-all":   setupPaper,
	"manycore-32": setupManycore,
	"service-tournament": func(ctx context.Context, o options) (stack, error) {
		return setupService(ctx, o, false)
	},
}

// run sets the workload up, runs timed passes for o.seconds and reports the
// end-to-end metrics, or with o.trace the per-layer metrics.
func run(ctx context.Context, setup setupFunc, o options) (_ *result, err error) {
	calibrate()
	var (
		st     stack
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if st, err = setup(ctx, o); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fmt.Fprintf(errLog, "setup %d: %.4f s\n", i+1, setups[i])
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()

	var (
		passes []passStats
		total  passOps
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		ps, err := timedPass(ctx, st)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		total.merge(ps.ops)
		fmt.Fprintf(errLog, "pass %d: wall %.4f s, cpu %.4f s, heap %.1f MiB, %d/%d failed\n", len(passes), ps.wallS, ps.cpuS, ps.heapMB, ps.ops.failed, ps.ops.attempted)
	}

	res := &result{Metrics: map[string]metric{}}
	values := map[string]float64{}
	defs := endToEnd
	if o.trace {
		layers, ops, err := st.layers(ctx, passes)
		if err != nil {
			return nil, err
		}
		total.merge(ops)
		values = layers
		values["failed_frac"] = float64(total.failed) / float64(max(total.attempted, 1))
		values["job_latency.samples"] = float64(len(total.latencyMS))
		defs = perLayer
	} else {
		// Every figure but the heap peak is the median over the passes of
		// that pass's value; for the latency percentiles, too, which keeps
		// them off the edge between groups of similar jobs that pooling would
		// put them on. The heap peak is the mean over the passes of each
		// pass's peak: where a pass's collections fall puts its peak in one
		// of a few levels, and both the median and the highest over a run
		// jump between them.
		var wall, cpu, tps, p50, p90, cps, heap []float64
		for _, p := range passes {
			wall = append(wall, p.wallS)
			cpu = append(cpu, p.cpuS)
			tps = append(tps, p.ticks/p.wallS)
			p50 = append(p50, quantile(p.ops.latencyMS, 0.5))
			p90 = append(p90, quantile(p.ops.latencyMS, 0.9))
			cps = append(cps, p.runs/p.wallS)
			heap = append(heap, p.heapMB)
		}
		values["wall_s"] = median(wall)
		values["cpu_s"] = median(cpu)
		values["sim_ticks_per_s"] = median(tps)
		values["job_latency_ms_p50"] = median(p50)
		values["job_latency_ms_p90"] = median(p90)
		values["cells_per_s"] = median(cps)
		values["heap_peak_mb"] = mean(heap)
		values["setup_s"] = median(setups)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	return res, nil
}

// timedPass runs one pass and measures it from outside: wall and CPU time,
// peak heap, allocation and the simulation counters.
func timedPass(ctx context.Context, st stack) (passStats, error) {
	reg := telemetry.Default()
	counter := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	ticks0, runs0, cycles0 := counter("sim_steps_total"), counter("sim_runs_total"), counter("sim_thermal_cycles_total")
	heap := startHeapSampler()
	cpu0, start := cpuSeconds(), time.Now()
	ops, err := st.pass(ctx)
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	peak := heap.finish()
	if err != nil {
		return passStats{}, err
	}
	runtime.ReadMemStats(&ms)
	return passStats{
		ops:        ops,
		wallS:      wall,
		cpuS:       cpu,
		heapMB:     peak,
		ticks:      counter("sim_steps_total") - ticks0,
		runs:       counter("sim_runs_total") - runs0,
		cycles:     counter("sim_thermal_cycles_total") - cycles0,
		allocBytes: float64(ms.TotalAlloc - alloc0),
	}, nil
}

// passLayers are the per-layer figures every workload takes from its timed
// passes: run and tick counts, cost per tick, and the reliability layer's
// cycle count.
func passLayers(passes []passStats) map[string]float64 {
	var runs, ticks, nsPerTick, allocPerTick, cycles []float64
	for _, p := range passes {
		runs = append(runs, p.runs)
		ticks = append(ticks, p.ticks)
		cycles = append(cycles, p.cycles)
		if p.ticks > 0 {
			nsPerTick = append(nsPerTick, p.cpuS*1e9/p.ticks)
			allocPerTick = append(allocPerTick, p.allocBytes/p.ticks)
		}
	}
	return map[string]float64{
		"sim.runs":                 median(runs),
		"sim.ticks":                median(ticks),
		"sim.ns_per_tick":          median(nsPerTick),
		"sim.alloc_bytes_per_tick": median(allocPerTick),
		"reliability.cycles":       median(cycles),
	}
}
