package rl

import (
	"sync"

	"repro/internal/telemetry"
)

// Package-wide learning metrics, registered once in the default telemetry
// registry. Agents run concurrently inside the job pool, so every metric is
// a process-wide aggregate; the alpha gauge tracks the most recent epoch of
// whichever agent advanced last (a live convergence indicator, not a
// per-agent value).
var (
	metricsOnce     sync.Once
	mEpochs         *telemetry.Counter
	mActionsExplore *telemetry.Counter
	mActionsGreedy  *telemetry.Counter
	mQResets        *telemetry.Counter
	mRestores       *telemetry.Counter
	mAdoptions      *telemetry.Counter
	mAlpha          *telemetry.Gauge
	mReward         *telemetry.Histogram

	// Learning-curve health (finalized epoch hooks; see LearningStats).
	mLearningRuns         *telemetry.Counter
	mLearningConverged    *telemetry.Counter
	mLearningLastConverge *telemetry.Gauge
)

// rewardBuckets spans the Eq. 8 range: unsafe-state penalties reach
// -(stressBins * agingBins) while safe-state rewards stay within ~[0, 1.2].
var rewardBuckets = []float64{-12, -8, -4, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1, 1.5}

func initMetrics() {
	metricsOnce.Do(func() {
		reg := telemetry.Default()
		mEpochs = reg.Counter("rl_epochs_total", "Decision epochs processed across all agents.")
		mActionsExplore = reg.Counter("rl_actions_total", "Actions selected, by selection mode.", telemetry.L("mode", "explore"))
		mActionsGreedy = reg.Counter("rl_actions_total", "Actions selected, by selection mode.", telemetry.L("mode", "greedy"))
		mQResets = reg.Counter("rl_q_resets_total", "Q-table resets on inter-application variations (Relearn).")
		mRestores = reg.Counter("rl_snapshot_restores_total", "Exploration-end snapshot restores on intra-application variations.")
		mAdoptions = reg.Counter("rl_adoptions_total", "Policies adopted from the signature library.")
		mAlpha = reg.Gauge("rl_alpha", "Learning rate after the most recent epoch of any agent.")
		mReward = reg.Histogram("rl_reward", "Distribution of Eq. 8 rewards granted.", rewardBuckets)
		mLearningRuns = reg.Counter("rl_learning_runs_total", "Sampled learning runs finalized.")
		mLearningConverged = reg.Counter("rl_learning_converged_total", "Sampled learning runs whose greedy policy converged.")
		mLearningLastConverge = reg.Gauge("rl_learning_last_converge_epoch", "Converge epoch of the most recently converged sampled run.")
	})
}
