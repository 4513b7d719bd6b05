package rl

import (
	"math"
	"sync/atomic"

	"repro/internal/telemetry"
)

// DefaultConvergenceWindow is the sliding window (in decision epochs) over
// which the greedy policy must stay unchanged for the convergence detector to
// declare the agent converged. The alpha schedule reaches the exploitation
// threshold after ~21 epochs (AgentConfig.EpochsToConverge), so an 8-epoch
// stability window distinguishes "alpha happens to be small" from "the argmax
// policy actually stopped moving".
const DefaultConvergenceWindow = 8

// EpochHook receives a learning policy's per-epoch records for one run. The
// policy builds one telemetry.Epoch per decision epoch and hands it to Emit
// with its live Q-table; the hook completes the record's learning-curve
// statistics (|TD error| of the epoch's update, state-visit coverage, greedy
// stability) and the cycling damage attributed since the previous epoch,
// folds it into the run's summary, and passes it on to the run's sink (the
// simulation wires the sink to epoch spans and the epoch log).
//
// A nil *EpochHook is a valid, disabled hook whose methods return at once
// without allocating, so policies keep the field permanently and hot paths
// pay one nil check when nothing observes the run. Observing never touches a
// policy's action-selection RNG, so results stay bit-identical with and
// without a hook. A hook is driven from the run's goroutine; it is not safe
// for concurrent use.
type EpochHook struct {
	window int
	sink   func(telemetry.Epoch)

	// Per-epoch accumulators, reset by Emit.
	tdSum         float64
	tdN           int
	pendingDamage float64

	// State-visit coverage over the Q-table.
	visited      []bool
	visitedCount int

	// Greedy-policy stability: argmax_a Q(s, a) per state, this epoch vs
	// the previous one.
	prevGreedy, curGreedy []int
	haveGreedy            bool
	stableSince           int
	haveStable            bool
	convergedEpoch        int

	epochs     int
	last       telemetry.Epoch
	rewardSum  float64
	rewardN    int
	coreDamage []float64
	actDamage  []float64

	finalized bool
}

// NewEpochHook returns an enabled hook passing every completed record to
// sink (which may be nil). window is the number of consecutive epochs the
// greedy policy must stay unchanged before the convergence detector fires;
// <= 0 selects DefaultConvergenceWindow.
func NewEpochHook(window int, sink func(telemetry.Epoch)) *EpochHook {
	if window <= 0 {
		window = DefaultConvergenceWindow
	}
	return &EpochHook{window: window, sink: sink, convergedEpoch: -1}
}

// ObserveTD records the temporal-difference error of one Eq. 7 (or SARSA)
// update; magnitudes are averaged per epoch.
func (h *EpochHook) ObserveTD(td float64) {
	if h == nil {
		return
	}
	if !math.IsNaN(td) && !math.IsInf(td, 0) {
		h.tdSum += math.Abs(td)
		h.tdN++
	}
}

// ObserveCycleDamage attributes one closed thermal cycle's stress delta to
// the core it closed on and the action in force when it closed. The damage
// is also stamped onto the next record, so the curve shows when cycling
// damage accrued.
func (h *EpochHook) ObserveCycleDamage(core, action int, damage float64) {
	if h == nil || damage <= 0 {
		return
	}
	h.pendingDamage += damage
	if core >= 0 {
		for len(h.coreDamage) <= core {
			h.coreDamage = append(h.coreDamage, 0)
		}
		h.coreDamage[core] += damage
	}
	if action >= 0 {
		for len(h.actDamage) <= action {
			h.actDamage = append(h.actDamage, 0)
		}
		h.actDamage[action] += damage
	}
}

// Emit completes one epoch's record — e carries the policy's decision fields,
// q is the live Q-table (nil skips coverage and stability) — folds it into
// the run summary and hands it to the sink.
func (h *EpochHook) Emit(e telemetry.Epoch, q *QTable) {
	if h == nil {
		return
	}
	e.Damage, h.pendingDamage = h.pendingDamage, 0
	e.AbsTD = 0
	if h.tdN > 0 {
		e.AbsTD = h.tdSum / float64(h.tdN)
	}
	h.tdSum, h.tdN = 0, 0
	if !math.IsNaN(e.Reward) {
		h.rewardSum += e.Reward
		h.rewardN++
	}
	if q != nil {
		h.observeTable(&e, q)
	}
	h.epochs++
	h.last = e
	if h.sink != nil {
		h.sink(e)
	}
}

// observeTable sets the record's coverage and greedy stability and advances
// the convergence detector.
func (h *EpochHook) observeTable(e *telemetry.Epoch, q *QTable) {
	states := q.NumStates()
	if len(h.visited) != states {
		h.visited = make([]bool, states)
		h.visitedCount = 0
	}
	if e.State >= 0 && e.State < states && !h.visited[e.State] {
		h.visited[e.State] = true
		h.visitedCount++
	}
	e.Coverage = float64(h.visitedCount) / float64(states)

	if len(h.curGreedy) != states {
		h.curGreedy = make([]int, states)
		h.prevGreedy = make([]int, states)
		h.haveGreedy = false
	}
	for st := 0; st < states; st++ {
		h.curGreedy[st] = q.BestAction(st)
	}
	if h.haveGreedy {
		same := 0
		for st := 0; st < states; st++ {
			if h.curGreedy[st] == h.prevGreedy[st] {
				same++
			}
		}
		e.Stability = float64(same) / float64(states)
		if same < states {
			h.haveStable = false
		}
	} else {
		// First observation of the greedy policy: it is trivially stable
		// with respect to itself.
		e.Stability = 1
	}
	if !h.haveStable {
		h.stableSince = e.Epoch
		h.haveStable = true
	}
	if h.convergedEpoch < 0 && e.Epoch-h.stableSince+1 >= h.window {
		h.convergedEpoch = h.stableSince
	}
	h.prevGreedy, h.curGreedy = h.curGreedy, h.prevGreedy
	h.haveGreedy = true
}

// Summary condenses the run so far.
func (h *EpochHook) Summary() telemetry.RunSummary {
	if h == nil {
		return telemetry.RunSummary{ConvergeEpoch: -1}
	}
	sum := telemetry.RunSummary{
		Epochs:        h.epochs,
		ConvergeEpoch: h.convergedEpoch,
	}
	if h.epochs > 0 {
		sum.FinalAlpha = h.last.Alpha
		sum.Coverage = h.last.Coverage
	}
	if h.rewardN > 0 {
		sum.MeanReward = h.rewardSum / float64(h.rewardN)
	}
	if len(h.coreDamage) > 0 {
		sum.CoreDamage = append([]float64(nil), h.coreDamage...)
		total := 0.0
		for _, d := range h.coreDamage {
			total += d
		}
		if total > 0 {
			sum.CoreDamageShare = make([]float64, len(h.coreDamage))
			for i, d := range h.coreDamage {
				sum.CoreDamageShare[i] = d / total
			}
		}
	}
	if len(h.actDamage) > 0 {
		sum.ActionDamage = append([]float64(nil), h.actDamage...)
	}
	return sum
}

// Finalize marks the run complete and folds it into the process-wide learning
// health counters exported via LearningStats (and the registry metrics fleet
// coordinators federate). Safe to call once per run; a nil hook no-ops.
func (h *EpochHook) Finalize() {
	if h == nil || h.finalized {
		return
	}
	h.finalized = true
	initMetrics()
	learningRuns.Add(1)
	mLearningRuns.Inc()
	if h.convergedEpoch >= 0 {
		learningConverged.Add(1)
		learningLastConverge.Store(int64(h.convergedEpoch))
		mLearningConverged.Inc()
		mLearningLastConverge.Set(float64(h.convergedEpoch))
	}
}

// Process-wide learning health, aggregated across every finalized hook in
// this process. Workers expose these through their registries so cluster
// heartbeats federate fleet-wide learning progress.
var (
	learningRuns         atomic.Int64
	learningConverged    atomic.Int64
	learningLastConverge atomic.Int64
)

// LearningStats reports how many observed runs this process has finalized,
// how many of them converged, and the converge epoch of the most recent
// convergence (0 if none yet).
func LearningStats() (runs, converged, lastConvergeEpoch int64) {
	return learningRuns.Load(), learningConverged.Load(), learningLastConverge.Load()
}
