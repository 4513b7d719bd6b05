package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// simInput builds the inputs of one reference run. Workloads and policies
// are stateful, so every call returns fresh ones. stallS is the execution
// stall the policy charges every thread at each decision epoch (its
// DecisionOverheadS); the scheduler replay re-applies it, since no getter
// exposes it. A policy with a nonzero stall must report its epochs through
// sim.DecisionInfoProvider.
type simInput struct {
	key   string
	build func() (cfg sim.RunConfig, work workload.Workload, pol sim.Policy, stallS float64, err error)
}

// simLayers accumulates the simulation layers' spans over the reference runs
// of one traced run.
//
// The traced loop times platform.Platform.Step, sim.Policy.Tick and
// reliability.MTTFAccumulator.Push around each call. The thermal stepper and
// the scheduler plus workload pair run inside Platform.Step, where they cannot
// be timed from outside, so they are replayed afterwards from inputs recorded
// through public getters: each replay is checked tick by tick against the
// platform's own trajectory, and its calls are timed. The remainder of
// Platform.Step (leakage, governors, power bookkeeping, copies) is
// platform.self_ns.
type simLayers struct {
	platform, policy, push span
	thermal, sched, work   span
	// loopNS and simRunNS are the wall time of the traced loops and of
	// sim.Run on the same inputs.
	loopNS, simRunNS float64
	migrations       int64
	nodes            int
}

// trace runs one reference input through sim.Run and through the traced
// loop, then replays the recorded inputs into the thermal stepper and the
// scheduler. It reports an error when any result or trajectory differs.
func (l *simLayers) trace(in simInput) error {
	cfg, work, pol, _, err := in.build()
	if err != nil {
		return err
	}
	start := time.Now()
	want, err := sim.Run(cfg, work, pol)
	l.simRunNS += float64(time.Since(start).Nanoseconds())
	if err != nil {
		return fmt.Errorf("%s: sim.Run: %w", in.key, err)
	}

	cfg, work, pol, stallS, err := in.build()
	if err != nil {
		return err
	}
	start = time.Now()
	got, rec, err := l.tracedRun(cfg, work, pol)
	l.loopNS += float64(time.Since(start).Nanoseconds())
	if err != nil {
		return fmt.Errorf("%s: traced loop: %w", in.key, err)
	}
	if resultDigest(got) != resultDigest(want) {
		return fmt.Errorf("%s: traced loop result differs from sim.Run", in.key)
	}
	l.migrations += got.Migrations

	if err := l.replayThermal(cfg, rec); err != nil {
		return fmt.Errorf("%s: thermal replay: %w", in.key, err)
	}
	_, work, _, _, err = in.build()
	if err != nil {
		return err
	}
	if err := l.replaySched(cfg, work, rec, stallS); err != nil {
		return fmt.Errorf("%s: scheduler replay: %w", in.key, err)
	}
	return nil
}

// metrics renders the accumulated spans as per-layer metrics. Times are
// nanoseconds per call; every layer but reliability is called once per tick.
// The layer share compares the timed layers with sim.Run's own wall time on
// the same inputs, so the traced loop's recording does not dilute it.
func (l *simLayers) metrics() map[string]float64 {
	self := l.platform.perCallNS() - l.thermal.perCallNS() - l.sched.perCallNS() - l.work.perCallNS()
	timed := l.platform.totalNS() + l.policy.totalNS() + l.push.totalNS()
	return map[string]float64{
		"thermal.step_ns":       l.thermal.perCallNS(),
		"thermal.nodes":         float64(l.nodes),
		"platform.step_ns":      l.platform.perCallNS(),
		"platform.self_ns":      self,
		"sched.tick_ns":         l.sched.perCallNS(),
		"sched.migrations":      float64(l.migrations),
		"workload.step_ns":      l.work.perCallNS(),
		"policy.tick_ns":        l.policy.perCallNS(),
		"reliability.push_ns":   l.push.perCallNS(),
		"trace.overhead_pct":    100 * (l.loopNS - l.simRunNS) / l.simRunNS,
		"trace.layer_share_pct": 100 * timed / l.simRunNS,
	}
}

// recording holds what the traced loop observed, per tick, for the replays.
type recording struct {
	ticks int
	// corePower[k*cores+c] is core c's power during tick k.
	corePower []float64
	// tempHash[k] digests the core temperatures after tick k.
	tempHash []uint64
	// schedHash[k] digests the scheduler and workload state after tick k.
	schedHash []uint64
	// levels are the DVFS levels each tick ran at, recorded when they change.
	levels []levelChange
	// after are the scheduler inputs a policy applied after a tick (tick -1
	// is Attach): decision stalls and affinity masks.
	after []policyChange
}

type levelChange struct {
	tick   int
	levels []int
}

type policyChange struct {
	tick     int
	decision bool
	masks    []sched.AffinityMask
}

// tracedRun is sim.Run's streaming (DiscardTrace) loop driven through public
// calls, with each layer call timed and the replay inputs recorded.
func (l *simLayers) tracedRun(cfg sim.RunConfig, work workload.Workload, pol sim.Policy) (*sim.Result, *recording, error) {
	if !cfg.DiscardTrace {
		return nil, nil, fmt.Errorf("the traced loop mirrors the streaming path; set DiscardTrace")
	}
	if cfg.RecordIntervalS <= 0 {
		return nil, nil, fmt.Errorf("RecordIntervalS must be positive, got %g", cfg.RecordIntervalS)
	}
	p := platform.New(cfg.Platform, work)
	if err := pol.Attach(p); err != nil {
		return nil, nil, fmt.Errorf("attach %s: %w", pol.Name(), err)
	}
	dp, _ := pol.(sim.DecisionInfoProvider)
	epoch := func() int {
		if dp == nil {
			return 0
		}
		e, _ := dp.CurrentDecision()
		return e
	}
	cores := p.NumCores()
	col := newCollector(cfg, cores, &l.push)
	rec := &recording{}
	var masks []sched.AffinityMask
	observePolicy := func(tick int, decided bool) {
		if decided || !sameMasks(p.Scheduler(), masks) {
			masks = currentMasks(p.Scheduler())
			rec.after = append(rec.after, policyChange{tick: tick, decision: decided, masks: masks})
		}
	}
	observePolicy(-1, false)
	var lastLevels []int
	lastEpoch := epoch()
	next := 0.0
	for k := 0; !p.Done(); k++ {
		if p.Now() >= cfg.MaxSimS {
			return nil, nil, fmt.Errorf("%s on %s exceeded max sim time %g s", pol.Name(), work.Name(), cfg.MaxSimS)
		}
		if p.Now()+1e-9 >= next {
			col.push(p.Temperatures())
			next += cfg.RecordIntervalS
		}
		t := cputicks()
		p.Step()
		l.platform.add(t)

		rec.ticks++
		rec.corePower = append(rec.corePower, p.CorePower()...)
		rec.tempHash = append(rec.tempHash, hashFloats(p.Temperatures()))
		rec.schedHash = append(rec.schedHash, schedState(p.Scheduler(), p.Workload()))
		if lv := p.CoreLevels(); !slices.Equal(lv, lastLevels) {
			lastLevels = append([]int(nil), lv...)
			rec.levels = append(rec.levels, levelChange{tick: k, levels: lastLevels})
		}

		t = cputicks()
		pol.Tick(p)
		l.policy.add(t)

		e := epoch()
		observePolicy(k, e != lastEpoch)
		lastEpoch = e
	}
	res := &sim.Result{
		Policy:         pol.Name(),
		Workload:       work.Name(),
		ExecTimeS:      p.Now(),
		DynamicEnergyJ: p.Meter().DynamicEnergy(),
		StaticEnergyJ:  p.Meter().StaticEnergy(),
		AvgDynPowerW:   p.Meter().AverageDynamicPower(),
		CacheMisses:    p.PerfCounters().CacheMisses,
		PageFaults:     p.PerfCounters().PageFaults,
		Migrations:     p.Scheduler().Migrations(),
		AppSwitches:    p.AppSwitches(),
	}
	col.finish(cfg, res)
	res.CoreDamageShare = damageShares(res.CoreCyclingStress)
	res.CombinedMTTF = reliability.CombinedMTTF(res.CyclingMTTF, res.AgingMTTF)
	return res, rec, nil
}

// replayThermal feeds the recorded per-tick powers into a fresh stepper of
// the platform's kind and checks the core temperatures after every step.
func (l *simLayers) replayThermal(cfg sim.RunConfig, rec *recording) error {
	pc := cfg.Platform
	if pc.Solver != platform.SolverFixed {
		return fmt.Errorf("replay supports the fixed stepper only, not %v", pc.Solver)
	}
	rows, cols := pc.GridRows, pc.GridCols
	if rows == 0 && cols == 0 {
		rows, cols = 2, 2
	}
	fp := thermal.GridFloorplan(rows, cols, pc.Floorplan)
	st, err := thermal.NewFixedStepper(fp.Net, pc.TickS)
	if err != nil {
		return err
	}
	nodes, cores := fp.Net.NumNodes(), fp.NumCores()
	l.nodes = nodes
	vecs := make([]float64, rec.ticks*nodes)
	for k := 0; k < rec.ticks; k++ {
		for c, node := range fp.Cores {
			vecs[k*nodes+node] = rec.corePower[k*cores+c]
		}
	}
	temps := make([]float64, cores)
	for k := 0; k < rec.ticks; k++ {
		t := cputicks()
		err := st.Step(pc.TickS, vecs[k*nodes:(k+1)*nodes])
		l.thermal.add(t)
		if err != nil {
			return err
		}
		fp.CoreTemperatures(temps, st.Temperatures())
		if hashFloats(temps) != rec.tempHash[k] {
			return fmt.Errorf("core temperatures diverge at tick %d", k)
		}
	}
	return nil
}

// replaySched drives a fresh scheduler and workload through the recorded
// frequencies, decision stalls and affinity masks, checking placements,
// migrations and completed work after every tick.
func (l *simLayers) replaySched(cfg sim.RunConfig, work workload.Workload, rec *recording, stallS float64) error {
	pc := cfg.Platform
	if pc.DVFSTransitionS > 0 {
		return fmt.Errorf("DVFS transition stalls are not replayable")
	}
	s := sched.New(pc.Sched)
	threads := work.Threads()
	s.SetThreads(threads)
	freqs := make([]float64, s.NumCores())
	after := rec.after
	apply := func(tick int) error {
		for len(after) > 0 && after[0].tick == tick {
			ch := after[0]
			after = after[1:]
			if ch.decision && stallS > 0 {
				for i := range work.Threads() {
					s.AddStall(i, stallS)
				}
			}
			for i, m := range ch.masks {
				if i < len(s.Threads()) && s.Affinity(i) != m {
					if err := s.SetAffinity(i, m); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := apply(-1); err != nil {
		return err
	}
	levels := rec.levels
	for k := 0; k < rec.ticks; k++ {
		if len(levels) > 0 && levels[0].tick == k {
			for c, lv := range levels[0].levels {
				freqs[c] = pc.Levels[lv].FrequencyGHz
			}
			levels = levels[1:]
		}
		t := cputicks()
		s.Tick(pc.TickS, freqs)
		l.sched.add(t)
		t = cputicks()
		work.Step()
		l.work.add(t)
		if th := work.Threads(); !slices.Equal(th, threads) {
			s.SetThreads(th)
			threads = th
		}
		if schedState(s, work) != rec.schedHash[k] {
			return fmt.Errorf("scheduler state diverges at tick %d", k)
		}
		if err := apply(k); err != nil {
			return err
		}
	}
	return nil
}

// collector mirrors sim's streaming metric collection (warm-up trim,
// per-core average and peak, streaming rainflow and aging MTTF), timing each
// reliability.MTTFAccumulator.Push.
type collector struct {
	skip      int
	buffering bool
	head      [][]float64
	accs      []*reliability.MTTFAccumulator
	sum, max  []float64
	n         int
	timer     *span
}

func newCollector(cfg sim.RunConfig, cores int, push *span) *collector {
	c := &collector{
		accs:  make([]*reliability.MTTFAccumulator, cores),
		sum:   make([]float64, cores),
		max:   make([]float64, cores),
		timer: push,
	}
	for i := range c.accs {
		c.accs[i] = reliability.NewMTTFAccumulator(cfg.Cycling, cfg.Aging)
		c.max[i] = math.Inf(-1)
	}
	if skip := int(cfg.WarmupSkipS / cfg.RecordIntervalS); skip > 0 {
		c.skip, c.buffering = skip, true
	}
	return c
}

func (c *collector) push(temps []float64) {
	if !c.buffering {
		c.feed(temps)
		return
	}
	c.head = append(c.head, append([]float64(nil), temps...))
	if len(c.head) > c.skip+10 {
		// Long enough for the warm-up trim: stream the samples past it.
		c.buffering = false
		for _, row := range c.head[c.skip:] {
			c.feed(row)
		}
		c.head = nil
	}
}

func (c *collector) feed(temps []float64) {
	for i, v := range temps {
		t := cputicks()
		c.accs[i].Push(v)
		c.timer.add(t)
		c.sum[i] += v
		if v > c.max[i] {
			c.max[i] = v
		}
	}
	c.n++
}

func (c *collector) finish(cfg sim.RunConfig, res *sim.Result) {
	if c.buffering {
		// Too short for the warm-up trim: keep every sample.
		for _, row := range c.head {
			c.feed(row)
		}
	}
	var sum float64
	res.PeakTempC = math.Inf(-1)
	res.CyclingMTTF, res.AgingMTTF = math.Inf(1), math.Inf(1)
	res.CoreCyclingStress = make([]float64, len(c.accs))
	for i, acc := range c.accs {
		sum += c.sum[i]
		if c.max[i] > res.PeakTempC {
			res.PeakTempC = c.max[i]
		}
		cy, ag := acc.Finish(cfg.RecordIntervalS)
		if cy < res.CyclingMTTF {
			res.CyclingMTTF = cy
		}
		if ag < res.AgingMTTF {
			res.AgingMTTF = ag
		}
		res.CoreCyclingStress[i] = acc.Stress()
	}
	if n := c.n * len(c.accs); n > 0 {
		res.AvgTempC = sum / float64(n)
	}
}

// damageShares normalizes per-core stress to shares summing to 1 (all zeros
// when no core accumulated stress), as sim.Result documents.
func damageShares(stress []float64) []float64 {
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

// resultDigest is a SHA-256 over a run's scalar results, bit for bit.
func resultDigest(r *sim.Result) string {
	var b []byte
	b = append(b, r.Policy...)
	b = append(b, 0)
	b = append(b, r.Workload...)
	b = append(b, 0)
	for _, v := range []float64{r.ExecTimeS, r.AvgTempC, r.PeakTempC, r.CyclingMTTF, r.AgingMTTF,
		r.CombinedMTTF, r.DynamicEnergyJ, r.StaticEnergyJ, r.AvgDynPowerW} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range []int64{r.CacheMisses, r.PageFaults, r.Migrations, int64(r.AppSwitches)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, s := range [][]float64{r.CoreCyclingStress, r.CoreDamageShare} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FNV-1a over 64-bit words, for the per-tick trajectory checks.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func hashFloats(vs []float64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vs {
		h = mix(h, math.Float64bits(v))
	}
	return h
}

// schedState digests what a scheduler tick and a workload step change:
// thread placements, the migration count and the completed work.
func schedState(s *sched.Scheduler, w workload.Workload) uint64 {
	h := mix(fnvOffset, uint64(s.Migrations()))
	for i := range s.Threads() {
		h = mix(h, uint64(s.Placement(i)))
	}
	return mix(h, math.Float64bits(w.CompletedWork()))
}

func currentMasks(s *sched.Scheduler) []sched.AffinityMask {
	m := make([]sched.AffinityMask, len(s.Threads()))
	for i := range m {
		m[i] = s.Affinity(i)
	}
	return m
}

// sameMasks reports whether the scheduler's affinity masks equal masks.
func sameMasks(s *sched.Scheduler, masks []sched.AffinityMask) bool {
	if len(s.Threads()) != len(masks) {
		return false
	}
	for i, m := range masks {
		if s.Affinity(i) != m {
			return false
		}
	}
	return true
}
