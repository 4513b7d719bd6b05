package experiments

import (
	"fmt"
	"strings"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig45Result compares the temperature profile of the proposed controller's
// exploration and exploitation phases against Linux ondemand on the face
// recognition application (Figs. 4 and 5).
type Fig45Result struct {
	// LinuxSeries and ProposedSeries are the across-core max temperature
	// profiles (for plotting).
	LinuxSeries, ProposedSeries *trace.Series
	// ExplorationEndS is the simulated time at which the proposed agent
	// left the exploration phase.
	ExplorationEndS float64
	// Window statistics: average of the across-core max temperature during
	// the exploration window (both policies) and during the exploitation
	// window (the final quarter of the proposed run).
	LinuxExploreAvgC, ProposedExploreAvgC float64
	LinuxExploitAvgC, ProposedExploitAvgC float64
}

// fig45Plan runs face recognition under Linux ondemand and the proposed
// controller, one cell each with the trace retained, and extracts the
// exploration- and exploitation-phase profiles. Each cell yields a partial
// *Fig45Result: its series, and for the proposed run the end of exploration.
func fig45Plan(Config) ([]planned, Assemble) {
	runs := []planned{
		{PolicyLinuxOndemand, func(cfg Config) (any, error) {
			app, err := workload.ByName("face_rec", workload.Set1)
			if err != nil {
				return nil, err
			}
			lin, err := sim.Run(cfg.Run, app, sim.LinuxPolicy{Kind: governor.Ondemand})
			if err != nil {
				return nil, err
			}
			return &Fig45Result{LinuxSeries: lin.Trace.MaxSeries()}, nil
		}},
		{PolicyProposed, func(cfg Config) (any, error) {
			app, err := workload.ByName("face_rec", workload.Set1)
			if err != nil {
				return nil, err
			}
			pp := &sim.ProposedPolicy{}
			configureProposed(cfg, pp)
			// The run's epoch records locate the end of exploration, so
			// they are logged even when nothing else observes the run.
			rc := cfg.Run
			if rc.Epochs == nil {
				rc.Epochs = telemetry.NewEpochLog()
			}
			prop, err := sim.Run(rc, app, pp)
			if err != nil {
				return nil, err
			}
			res := &Fig45Result{ProposedSeries: prop.Trace.MaxSeries()}
			// The end of the exploration phase is the first epoch whose
			// alpha dropped below the explore threshold.
			epochs := prop.Epochs.Points
			for _, e := range epochs {
				if e.Alpha < 0.55 {
					res.ExplorationEndS = e.TimeS
					break
				}
			}
			if res.ExplorationEndS == 0 && len(epochs) > 0 {
				res.ExplorationEndS = epochs[len(epochs)-1].TimeS
			}
			return res, nil
		}},
	}
	assemble := func(rows []any) any {
		parts, ok := complete[*Fig45Result](rows)
		if !ok {
			return nil
		}
		res := *parts[1]
		res.LinuxSeries = parts[0].LinuxSeries
		window := func(s *trace.Series, fromS, toS float64) float64 {
			from := int(fromS / s.IntervalS)
			to := int(toS / s.IntervalS)
			return trace.Mean(s.Window(from, to))
		}
		explEnd := res.ExplorationEndS
		res.LinuxExploreAvgC = window(res.LinuxSeries, 0, explEnd)
		res.ProposedExploreAvgC = window(res.ProposedSeries, 0, explEnd)
		// Exploitation window: the final quarter of the proposed run,
		// compared against the same relative window of the Linux run.
		pDur := res.ProposedSeries.Duration()
		lDur := res.LinuxSeries.Duration()
		res.ProposedExploitAvgC = window(res.ProposedSeries, 0.75*pDur, pDur)
		res.LinuxExploitAvgC = window(res.LinuxSeries, 0.75*lDur, lDur)
		return &res
	}
	return runs, assemble
}

// FormatFig45 renders the phase comparison.
func FormatFig45(r *Fig45Result) string {
	var sb strings.Builder
	sb.WriteString("Figs. 4-5 — learning phases on face recognition (across-core max temperature)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "window\tlinux ondemand (C)\tproposed (C)\tdelta (C)")
	fmt.Fprintf(w, "exploration (0-%.0fs)\t%.1f\t%.1f\t%+.1f\n",
		r.ExplorationEndS, r.LinuxExploreAvgC, r.ProposedExploreAvgC, r.ProposedExploreAvgC-r.LinuxExploreAvgC)
	fmt.Fprintf(w, "exploitation (last quarter)\t%.1f\t%.1f\t%+.1f\n",
		r.LinuxExploitAvgC, r.ProposedExploitAvgC, r.ProposedExploitAvgC-r.LinuxExploitAvgC)
	w.Flush()
	sb.WriteString("\nDuring exploration the proposed profile tracks Linux; after convergence it runs cooler (Fig. 5).\n")
	return sb.String()
}
