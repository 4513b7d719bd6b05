package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig7Row is one (application, decision epoch) point of the epoch sweep.
type Fig7Row struct {
	App string
	// EpochS is the decision epoch in seconds.
	EpochS float64
	// NormExecTime is execution time normalized to Linux ondemand on the
	// same application (Fig. 7a).
	NormExecTime float64
	// NormEnergy is dynamic energy normalized to Linux ondemand (Fig. 7b).
	NormEnergy float64
	// LearningTimeS is the wall time until the controller's visited-pair
	// convergence criterion fired; NormLearningTime normalizes it to the
	// smallest epoch in the sweep (Fig. 7c).
	LearningTimeS    float64
	NormLearningTime float64
}

// fig7Controller is the proposed controller of one (epoch, repeat) run.
func fig7Controller(epoch float64, rep int) core.Config {
	ctl := core.DefaultConfig()
	ctl.EpochSamples = int(math.Max(2, math.Round(epoch/ctl.SamplingIntervalS)))
	ctl.Agent.Seed += int64(1000 * rep)
	return ctl
}

// fig7Plan sweeps the decision epoch for tachyon, mpeg_dec and mpeg_enc,
// reporting execution-time overhead, energy overhead and learning time. Per
// application the plan runs the Linux baseline for normalization, then one
// cell per (epoch, repeat).
func fig7Plan(cfg Config) ([]planned, Assemble) {
	epochs := []float64{6, 15, 30, 45, 60, 80}
	apps := []string{"tachyon", "mpeg_dec", "mpeg_enc"}
	if cfg.Quick {
		epochs = []float64{6, 30, 80}
		apps = apps[:1]
	}
	reps := cfg.repeats()
	var runs []planned
	for _, appName := range apps {
		runs = append(runs, linuxBaseline(appName))
		for _, epoch := range epochs {
			for rep := range reps {
				runs = append(runs, planned{fmt.Sprintf("%s/epoch%gs/%d", appName, epoch, rep), func(cfg Config) (any, error) {
					app, err := workload.ByName(appName, workload.Set1)
					if err != nil {
						return nil, err
					}
					ctl := fig7Controller(epoch, rep)
					r, err := runScalars(cfg, app, &sim.ProposedPolicy{Config: &ctl})
					if err != nil {
						return nil, fmt.Errorf("fig7 %s epoch %.0fs: %w", appName, epoch, err)
					}
					return metricsOf(r), nil
				}})
			}
		}
	}
	assemble := func(rows []any) any {
		all, ok := complete[runMetrics](rows)
		if !ok {
			return nil
		}
		var out []Fig7Row
		for _, appName := range apps {
			lin := all[0]
			all = all[1:]
			var baseLearn float64
			for i, epoch := range epochs {
				var execSum, energySum, learnSum, epochS float64
				for rep, r := range all[:reps] {
					ctl := fig7Controller(epoch, rep)
					epochS = ctl.SamplingIntervalS * float64(ctl.EpochSamples)
					// Training time = epochs for the learning-rate schedule to
					// reach exploitation, times the epoch length (the paper:
					// "training time is a function of decision epoch and
					// number of iterations").
					learnEpochs := ctl.Agent.EpochsToConverge()
					execSum += r.ExecTimeS
					energySum += r.DynamicEnergyJ
					learnSum += float64(learnEpochs) * epochS
				}
				all = all[reps:]
				learn := learnSum / float64(reps)
				if i == 0 {
					baseLearn = learn
				}
				norm := 0.0
				if baseLearn > 0 {
					norm = learn / baseLearn
				}
				out = append(out, Fig7Row{
					App:              appName,
					EpochS:           epochS,
					NormExecTime:     execSum / float64(reps) / lin.ExecTimeS,
					NormEnergy:       energySum / float64(reps) / lin.DynamicEnergyJ,
					LearningTimeS:    learn,
					NormLearningTime: norm,
				})
			}
		}
		return out
	}
	return runs, assemble
}

// FormatFig7 renders the epoch sweep.
func FormatFig7(rows []Fig7Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — effect of the decision epoch (normalized to Linux ondemand / smallest epoch)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tepoch (s)\tnorm exec time\tnorm energy\tlearning time (s)\tnorm learning time")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.3f\t%.3f\t%.0f\t%.2f\n",
			r.App, r.EpochS, r.NormExecTime, r.NormEnergy, r.LearningTimeS, r.NormLearningTime)
	}
	w.Flush()
	sb.WriteString("\nSmall epochs pay adaptation overhead (time and energy); learning time grows with the epoch.\n")
	return sb.String()
}
