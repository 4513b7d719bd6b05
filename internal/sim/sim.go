// Package sim runs a policy (Linux governor, the Ge & Qiu baseline, or the
// proposed RL controller) on the simulated platform until the workload
// completes, and derives the ground-truth metrics the paper reports:
// average/peak temperature, thermal-cycling MTTF, aging MTTF, execution
// time, energy and perf counters.
package sim

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy is a thermal-management policy driving a platform.
type Policy interface {
	// Name identifies the policy in result tables.
	Name() string
	// Attach configures the policy on a fresh platform before the run.
	Attach(p *platform.Platform) error
	// Tick is invoked once after every platform step.
	Tick(p *platform.Platform)
}

// RunConfig parameterizes a simulation run.
type RunConfig struct {
	// Platform configures the machine.
	Platform platform.Config
	// RecordIntervalS is the oracle trace sampling interval used for
	// ground-truth reliability metrics. It must stay well below the
	// workloads' iteration periods to avoid aliasing away thermal cycles
	// (the effect Fig. 6 shows for coarse sampling); the default is 0.25 s.
	RecordIntervalS float64
	// MaxSimS aborts runaway runs (safety net), seconds.
	MaxSimS float64
	// WarmupSkipS excludes the initial cold-start ramp from the thermal
	// metrics (the paper measures on an already-warm machine; without this
	// the single ambient-to-operating ramp would be rainflow-counted as one
	// giant cycle and dominate the fatigue stress of every policy alike).
	WarmupSkipS float64
	// DiscardTrace, when set, computes the thermal metrics online through
	// the streaming rainflow/MTTF accumulators instead of retaining the
	// oracle traces: Result.Trace and Result.PowerTrace are nil and the run
	// holds only a bounded warmup buffer. The scalar metrics are identical
	// to the retained-trace path. Use it for experiment rows that only need
	// scalars; leave it off when the trace itself is exported (plots, CSV).
	DiscardTrace bool
	// Cycling and Aging are the reliability constants for ground-truth
	// MTTF computation.
	Cycling reliability.CyclingParams
	Aging   reliability.AgingParams
	// Recorder, when non-nil, is attached to policies that support decision
	// tracing (the RL controller), collecting one event per decision epoch
	// into a bounded ring buffer.
	Recorder *telemetry.Recorder
	// AgentObserver, when non-nil, is called with the learning agent after a
	// run completes, for policies that expose one (the RL controller). The
	// thermsim -save-agent flag uses it to persist what the run learned.
	AgentObserver func(*rl.Agent)
	// LearningObserver, when non-nil, arms learning-curve sampling on
	// policies that support it (LearningAttacher): a fresh sampler is
	// attached before the run, finalized after it, and handed to the
	// observer with the policy and workload names. When the policy also
	// reports its live decision (DecisionInfoProvider), closing thermal
	// cycles are attributed to the decision epoch and action in force.
	// Sampling is observation-only — it never touches a policy's
	// action-selection RNG — so enabling it leaves every other result field
	// bit-identical. Nil disables sampling with zero overhead.
	LearningObserver func(policy, workload string, s *rl.LearningSampler)
	// Tracer, when non-nil, collects hierarchical run/window/epoch spans;
	// TraceParent is the span the run span nests under (0 for a root span).
	// A nil Tracer disables tracing with zero overhead on the step loop.
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
	// TraceWindowS is the simulated-time width of one window span (the
	// aggregation granularity of the thermal timeline); default 10 s.
	TraceWindowS float64
	// TempCeilingC, when positive, arms the thermal-runaway anomaly check: any
	// sampled core temperature above the ceiling trips Anomalies. The
	// ceiling is a fault detector, not a control knob — set it well above
	// the policies' thermal thresholds.
	TempCeilingC float64
	// Anomalies receives thermal-runaway and numeric anomalies detected
	// while sampling (typically a *telemetry.FlightRecorder). Nil disables
	// detection.
	Anomalies telemetry.AnomalySink
}

// DefaultRunConfig returns the standard configuration.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Platform:        platform.DefaultConfig(),
		RecordIntervalS: 0.25,
		MaxSimS:         20000,
		WarmupSkipS:     45,
		Cycling:         reliability.DefaultCyclingParams(),
		Aging:           reliability.DefaultAgingParams(),
		TraceWindowS:    10,
	}
}

// Result summarizes a completed run.
type Result struct {
	// Policy and Workload name the run.
	Policy, Workload string
	// ExecTimeS is the workload completion time, seconds.
	ExecTimeS float64
	// Trace is the oracle per-core temperature trace.
	Trace *trace.MultiTrace
	// PowerTrace is the per-core total power (dynamic + leakage) sampled at
	// the same interval, for power-profile analysis.
	PowerTrace *trace.MultiTrace
	// AvgTempC and PeakTempC summarize the trace.
	AvgTempC, PeakTempC float64
	// CyclingMTTF and AgingMTTF are the chip MTTFs in years (worst core).
	CyclingMTTF, AgingMTTF float64
	// CombinedMTTF merges both wear-out mechanisms under the
	// sum-of-failure-rates model (Section 4.1), years.
	CombinedMTTF float64
	// CoreCyclingStress is the per-core Eq. 6 plastic fatigue stress over
	// the warm window — the numerator basis of the cycling MTTF before the
	// min-over-cores reduction.
	CoreCyclingStress []float64
	// CoreDamageShare normalizes CoreCyclingStress to sum to 1 (which cores
	// absorbed the cycling damage); all zeros when no core accumulated
	// stress.
	CoreDamageShare []float64
	// DynamicEnergyJ and StaticEnergyJ are the metered energies.
	DynamicEnergyJ, StaticEnergyJ float64
	// AvgDynPowerW is the average dynamic power over the run.
	AvgDynPowerW float64
	// CacheMisses and PageFaults are the accumulated perf counters.
	CacheMisses, PageFaults int64
	// Migrations counts thread migrations.
	Migrations int64
	// AppSwitches counts application switches observed by the platform.
	AppSwitches int
}

// RecorderAttacher is implemented by policies that can stream per-epoch
// decision events into a telemetry recorder (the proposed RL controller).
type RecorderAttacher interface {
	AttachRecorder(*telemetry.Recorder)
}

// AgentProvider is implemented by policies backed by a learning agent (the
// proposed RL controller); LearningAgent returns nil before Attach.
type AgentProvider interface {
	LearningAgent() *rl.Agent
}

// TracerAttacher is implemented by policies that can emit per-epoch spans
// under the run span (the proposed RL controller).
type TracerAttacher interface {
	AttachTracer(t *telemetry.Tracer, runSpan telemetry.SpanID)
}

// LearningAttacher is implemented by policies that can drive a per-epoch
// learning-curve sampler (the live Q-table learners; frozen policies like the
// distilled table have no curve to sample).
type LearningAttacher interface {
	AttachLearningSampler(*rl.LearningSampler)
}

// DecisionInfoProvider is implemented by policies that can report which
// decision epoch (and applied action) is currently steering the platform,
// enabling thermal-cycle damage attribution.
type DecisionInfoProvider interface {
	CurrentDecision() (epoch, action int)
}

// Run executes the workload under the policy until completion (or MaxSimS)
// and returns the collected metrics.
func Run(cfg RunConfig, work workload.Workload, policy Policy) (*Result, error) {
	if cfg.RecordIntervalS <= 0 {
		return nil, fmt.Errorf("sim: RecordIntervalS must be positive, got %g", cfg.RecordIntervalS)
	}
	initSimMetrics()
	var runSpan telemetry.SpanID
	if cfg.Tracer != nil {
		runSpan = cfg.Tracer.Start(cfg.TraceParent, telemetry.KindRun,
			policy.Name()+"/"+work.Name(),
			telemetry.Str("policy", policy.Name()),
			telemetry.Str("workload", work.Name()))
	}
	fail := func(err error) (*Result, error) {
		if cfg.Tracer != nil {
			cfg.Tracer.End(runSpan, telemetry.Str("error", err.Error()))
		}
		return nil, err
	}
	p := platform.New(cfg.Platform, work)
	if err := policy.Attach(p); err != nil {
		return fail(fmt.Errorf("sim: attach %s: %w", policy.Name(), err))
	}
	if cfg.Recorder != nil {
		if ra, ok := policy.(RecorderAttacher); ok {
			ra.AttachRecorder(cfg.Recorder)
		}
	}
	if cfg.Tracer != nil {
		if ta, ok := policy.(TracerAttacher); ok {
			ta.AttachTracer(cfg.Tracer, runSpan)
		}
	}
	var learn *rl.LearningSampler
	if cfg.LearningObserver != nil {
		if la, ok := policy.(LearningAttacher); ok {
			learn = rl.NewLearningSampler(0)
			la.AttachLearningSampler(learn)
		}
	}
	guard := newRunGuard(cfg, policy.Name()+"/"+work.Name())
	windows := newWindowAgg(cfg, runSpan)
	var mt, pt *trace.MultiTrace
	var sc *scalarCollector
	// at is an attribution-only streaming feed used when the trace is
	// retained (sc == nil) but a sampler wants per-cycle damage attribution.
	var at *scalarCollector
	if cfg.DiscardTrace {
		sc = newScalarCollector(cfg, p.NumCores())
	} else {
		// Pre-size the series so the recording loop never grows a slice
		// mid-run. The estimate is the serialized-at-lowest-frequency upper
		// bound on execution time, clamped to the runaway limit; in the rare
		// case a run outlasts it, append simply grows.
		capacity := traceCapacity(cfg, work)
		mt = trace.NewMultiTraceCap(p.NumCores(), cfg.RecordIntervalS, capacity)
		pt = trace.NewMultiTraceCap(p.NumCores(), cfg.RecordIntervalS, capacity)
		if learn != nil {
			if _, ok := policy.(DecisionInfoProvider); ok {
				at = newScalarCollector(cfg, p.NumCores())
			}
		}
	}
	if learn != nil {
		if dp, ok := policy.(DecisionInfoProvider); ok {
			feed := sc
			if feed == nil {
				feed = at
			}
			if feed != nil {
				armAttribution(feed.accs, dp, learn)
			}
		}
	}
	nextRecord := 0.0
	steps := int64(0)
	for !p.Done() {
		if p.Now() >= cfg.MaxSimS {
			return fail(fmt.Errorf("sim: %s on %s exceeded max sim time %g s (completed %.1f%% of work)",
				policy.Name(), work.Name(), cfg.MaxSimS, 100*work.CompletedWork()/work.TotalWork()))
		}
		if p.Now()+1e-9 >= nextRecord {
			temps := p.Temperatures()
			power := p.CorePower()
			if sc != nil {
				sc.push(temps)
			} else {
				mt.Append(temps)
				pt.Append(power)
				if at != nil {
					at.push(temps)
				}
			}
			if guard != nil {
				guard.sample(p.Now(), temps)
			}
			if windows != nil {
				windows.sample(p.Now(), temps, power)
			}
			nextRecord += cfg.RecordIntervalS
		}
		p.Step()
		policy.Tick(p)
		steps++
	}
	mSteps.Add(steps)
	if windows != nil {
		windows.flush(p.Now())
	}
	if cfg.AgentObserver != nil {
		if ap, ok := policy.(AgentProvider); ok {
			if a := ap.LearningAgent(); a != nil {
				cfg.AgentObserver(a)
			}
		}
	}
	if at != nil {
		// Flush the attribution feed's residual half cycles (attributed to
		// the final decision, the one still in force when the run ended).
		at.drain(cfg)
	}
	res := collect(cfg, p, mt, pt, sc, policy.Name(), work.Name())
	if learn != nil {
		learn.Finalize()
		cfg.LearningObserver(policy.Name(), work.Name(), learn)
	}
	if guard != nil {
		guard.finals(res)
	}
	if cfg.Tracer != nil {
		cfg.Tracer.End(runSpan,
			telemetry.Num("exec_time_s", res.ExecTimeS),
			telemetry.Num("peak_c", res.PeakTempC),
			telemetry.Num("avg_c", res.AvgTempC),
			telemetry.Num("cycling_mttf_y", res.CyclingMTTF),
			telemetry.Num("aging_mttf_y", res.AgingMTTF),
			telemetry.Num("combined_mttf_y", res.CombinedMTTF),
			telemetry.Num("migrations", float64(res.Migrations)))
	}
	return res, nil
}

func collect(cfg RunConfig, p *platform.Platform, mt, pt *trace.MultiTrace, sc *scalarCollector, policy, wl string) *Result {
	res := &Result{
		Policy:         policy,
		Workload:       wl,
		ExecTimeS:      p.Now(),
		Trace:          mt,
		PowerTrace:     pt,
		DynamicEnergyJ: p.Meter().DynamicEnergy(),
		StaticEnergyJ:  p.Meter().StaticEnergy(),
		AvgDynPowerW:   p.Meter().AverageDynamicPower(),
		CacheMisses:    p.PerfCounters().CacheMisses,
		PageFaults:     p.PerfCounters().PageFaults,
		Migrations:     p.Scheduler().Migrations(),
		AppSwitches:    p.AppSwitches(),
	}
	var cycles int64
	if sc != nil {
		cycles = sc.finish(cfg, res)
	} else {
		warm := trimWarmup(mt, cfg.WarmupSkipS)
		res.AvgTempC = warm.AverageTemperature()
		res.PeakTempC = warm.PeakTemperature()
		// One rainflow pass per core feeds the cycle tally, the per-core
		// stress surface, and the chip MTTF reduction alike (ChipMTTF would
		// redo the counting per metric).
		res.CyclingMTTF, res.AgingMTTF = math.Inf(1), math.Inf(1)
		res.CoreCyclingStress = make([]float64, len(warm.Cores))
		for i, s := range warm.Cores {
			rf := reliability.Rainflow(s.Values)
			cycles += int64(len(rf))
			stress := cfg.Cycling.ThermalStress(rf)
			res.CoreCyclingStress[i] = stress
			if c := cfg.Cycling.CyclingMTTFFromStress(stress, float64(len(s.Values))*warm.IntervalS); c < res.CyclingMTTF {
				res.CyclingMTTF = c
			}
			if a := cfg.Aging.AgingMTTFFromSeries(s.Values); a < res.AgingMTTF {
				res.AgingMTTF = a
			}
		}
	}
	res.CoreDamageShare = damageShares(res.CoreCyclingStress)
	res.CombinedMTTF = reliability.CombinedMTTF(res.CyclingMTTF, res.AgingMTTF)

	mRuns.Inc()
	mSimSeconds.Add(int64(res.ExecTimeS))
	mAppSwitches.Add(int64(res.AppSwitches))
	mCycles.Add(cycles)
	mPeakTemp.Observe(res.PeakTempC)
	mAvgTemp.Observe(res.AvgTempC)
	return res
}

// traceCapacity estimates the per-core sample count of a run for pre-sizing:
// the workload executed serially at the lowest operating frequency (an upper
// bound on execution time), clamped to the runaway limit.
func traceCapacity(cfg RunConfig, work workload.Workload) int {
	minFreq := math.Inf(1)
	for _, l := range cfg.Platform.Levels {
		if l.FrequencyGHz > 0 && l.FrequencyGHz < minFreq {
			minFreq = l.FrequencyGHz
		}
	}
	worstS := cfg.MaxSimS
	if !math.IsInf(minFreq, 1) && minFreq > 0 {
		if est := work.TotalWork() / minFreq; est < worstS {
			worstS = est
		}
	}
	return int(worstS/cfg.RecordIntervalS) + 2
}

// trimWarmup returns a view of the trace with the first skipS seconds
// removed (or the original trace itself if too short to trim). The view
// reslices each core's sample storage in place — no sample is copied — so
// the retained full trace and the warm view share one backing array.
func trimWarmup(mt *trace.MultiTrace, skipS float64) *trace.MultiTrace {
	skip := int(skipS / mt.IntervalS)
	if skip <= 0 || mt.Len() <= skip+10 {
		return mt
	}
	out := &trace.MultiTrace{IntervalS: mt.IntervalS, Cores: make([]*trace.Series, len(mt.Cores))}
	series := make([]trace.Series, len(mt.Cores))
	for i, s := range mt.Cores {
		series[i] = trace.Series{IntervalS: s.IntervalS, Values: s.Values[skip:]}
		out.Cores[i] = &series[i]
	}
	return out
}

// scalarCollector is the DiscardTrace sampling sink: it reproduces exactly
// the metrics the retained-trace path derives (warmup trim, per-core
// average/peak, streaming rainflow cycling MTTF and incremental aging MTTF)
// without keeping the samples. Only the warmup head is buffered, because the
// trim decision — skip the first skipS seconds, but only when the run is
// long enough (trimWarmup's guard) — can't be made until enough samples have
// arrived.
type scalarCollector struct {
	skip      int // samples to drop when trimming engages
	buffering bool
	head      *trace.MultiTrace // buffered head while the trim decision is open
	accs      []*reliability.MTTFAccumulator
	sum       []float64 // per-core temperature sum past warmup
	max       []float64 // per-core peak past warmup
	n         int       // samples per core past warmup
}

func newScalarCollector(cfg RunConfig, cores int) *scalarCollector {
	sc := &scalarCollector{
		accs: make([]*reliability.MTTFAccumulator, cores),
		sum:  make([]float64, cores),
		max:  make([]float64, cores),
	}
	for i := range sc.accs {
		sc.accs[i] = reliability.NewMTTFAccumulator(cfg.Cycling, cfg.Aging)
	}
	for i := range sc.max {
		sc.max[i] = math.Inf(-1)
	}
	if skip := int(cfg.WarmupSkipS / cfg.RecordIntervalS); skip > 0 {
		sc.skip = skip
		sc.buffering = true
		sc.head = trace.NewMultiTraceCap(cores, cfg.RecordIntervalS, skip+11)
	}
	return sc
}

func (sc *scalarCollector) push(temps []float64) {
	if sc.buffering {
		sc.head.Append(temps)
		if sc.head.Len() > sc.skip+10 {
			// The run is long enough that the warmup trim applies: replay
			// the buffered samples past the skip point and stream directly
			// from now on. The head buffer (and with it the warmup ramp) is
			// dropped.
			sc.buffering = false
			for i := sc.skip; i < sc.head.Len(); i++ {
				sc.feedAt(sc.head, i)
			}
			sc.head = nil
		}
		return
	}
	for c, v := range temps {
		sc.feed(c, v)
	}
	sc.n++
}

func (sc *scalarCollector) feedAt(mt *trace.MultiTrace, i int) {
	for c, s := range mt.Cores {
		sc.feed(c, s.Values[i])
	}
	sc.n++
}

func (sc *scalarCollector) feed(c int, v float64) {
	sc.accs[c].Push(v)
	sc.sum[c] += v
	if v > sc.max[c] {
		sc.max[c] = v
	}
}

// finish derives the thermal metrics into res and returns the rainflow cycle
// count (the mCycles metric).
func (sc *scalarCollector) finish(cfg RunConfig, res *Result) int64 {
	if sc.buffering {
		// Run ended before the trim decision: like trimWarmup's guard, keep
		// everything.
		for i := 0; i < sc.head.Len(); i++ {
			sc.feedAt(sc.head, i)
		}
		sc.head = nil
	}
	var sum float64
	peak := math.Inf(-1)
	cycling, aging := math.Inf(1), math.Inf(1)
	var cycles int64
	for c := range sc.accs {
		sum += sc.sum[c]
		if sc.max[c] > peak {
			peak = sc.max[c]
		}
		cy, ag := sc.accs[c].Finish(cfg.RecordIntervalS)
		if cy < cycling {
			cycling = cy
		}
		if ag < aging {
			aging = ag
		}
		cycles += sc.accs[c].Cycles()
	}
	if n := sc.n * len(sc.accs); n > 0 {
		res.AvgTempC = sum / float64(n)
	}
	res.PeakTempC = peak
	res.CyclingMTTF, res.AgingMTTF = cycling, aging
	res.CoreCyclingStress = make([]float64, len(sc.accs))
	for c := range sc.accs {
		res.CoreCyclingStress[c] = sc.accs[c].Stress()
	}
	return cycles
}

// drain closes an attribution-only collector: replay a still-buffered head
// (run too short for the warmup trim) and flush every core's residual half
// cycles through the rainflow streams so the on-cycle hooks see them.
func (sc *scalarCollector) drain(cfg RunConfig) {
	if sc.buffering {
		for i := 0; i < sc.head.Len(); i++ {
			sc.feedAt(sc.head, i)
		}
		sc.head = nil
	}
	for c := range sc.accs {
		sc.accs[c].Finish(cfg.RecordIntervalS)
	}
}

// armAttribution points every core accumulator's cycle hook at the sampler,
// pinning each closing cycle's stress delta to the decision in force.
func armAttribution(accs []*reliability.MTTFAccumulator, dp DecisionInfoProvider, learn *rl.LearningSampler) {
	for c := range accs {
		core := c
		accs[core].SetOnCycle(func(_ reliability.Cycle, stressDelta float64) {
			if stressDelta > 0 {
				_, action := dp.CurrentDecision()
				learn.ObserveCycleDamage(core, action, stressDelta)
			}
		})
	}
}

// damageShares normalizes per-core stress to shares summing to 1; a zero
// total yields all-zero shares (no plastic cycling damage to attribute).
func damageShares(stress []float64) []float64 {
	if len(stress) == 0 {
		return nil
	}
	total := 0.0
	for _, v := range stress {
		total += v
	}
	shares := make([]float64, len(stress))
	if total > 0 {
		for i, v := range stress {
			shares[i] = v / total
		}
	}
	return shares
}

// ChipMTTF computes the chip-level cycling and aging MTTFs (years) from an
// oracle trace: the minimum over cores (the weakest core limits lifetime).
func ChipMTTF(cfg RunConfig, mt *trace.MultiTrace) (cycling, aging float64) {
	cycling, aging = math.Inf(1), math.Inf(1)
	for _, s := range mt.Cores {
		c := cfg.Cycling.CyclingMTTFFromSeries(s.Values, mt.IntervalS)
		a := cfg.Aging.AgingMTTFFromSeries(s.Values)
		if c < cycling {
			cycling = c
		}
		if a < aging {
			aging = a
		}
	}
	return cycling, aging
}
