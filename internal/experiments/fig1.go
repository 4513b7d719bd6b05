package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig1Row reports the thermal character of one application under one thread
// assignment policy — the quantities the paper's motivational figure
// annotates (average temperature and thermal cycling).
type Fig1Row struct {
	App        string
	Assignment string // "linux-default" or "fixed-affinity"
	AvgTempC   float64
	PeakTempC  float64
	// CyclingMTTF summarizes thermal cycling (lower MTTF = more cycling).
	CyclingMTTF float64
	AgingMTTF   float64
}

// Fig1Result bundles the motivational experiment: face recognition and mpeg
// encoding executed under Linux's default allocation vs a fixed arbitrary
// thread-to-core assignment (two cores with two threads, two with one).
type Fig1Result struct {
	Rows []Fig1Row
	// DefaultSeq and PinnedSeq are the back-to-back scenario results (for
	// plotting the Fig. 1 style profile).
	DefaultSeq, PinnedSeq *sim.Result
}

// fig1Slots is the paper's arbitrary fixed assignment: cores 0 and 1 run two
// threads each, cores 2 and 3 run one each.
var fig1Slots = []int{0, 1, 2, 3, 0, 1}

// fig1Policy builds the policy of one thread assignment.
func fig1Policy(assignment string) sim.Policy {
	if assignment == "linux-default" {
		return sim.LinuxPolicy{Kind: governor.Ondemand}
	}
	return &sim.FixedAffinityPolicy{Slots: fig1Slots, Kind: governor.Ondemand}
}

// fig1Plan reproduces the motivational example of Section 3: one cell per
// (application, assignment) row, then the two back-to-back profiles. Each
// cell yields a partial *Fig1Result that the assembler merges.
func fig1Plan(Config) ([]planned, Assemble) {
	var runs []planned
	for _, appName := range []string{"face_rec", "mpeg_enc"} {
		for _, assignment := range []string{"linux-default", "fixed-affinity"} {
			runs = append(runs, planned{appName + "/" + assignment, func(cfg Config) (any, error) {
				app, err := workload.ByName(appName, workload.Set1)
				if err != nil {
					return nil, err
				}
				r, err := runScalars(cfg, app, fig1Policy(assignment))
				if err != nil {
					return nil, err
				}
				return &Fig1Result{Rows: []Fig1Row{{
					App:         appName,
					Assignment:  assignment,
					AvgTempC:    r.AvgTempC,
					PeakTempC:   r.PeakTempC,
					CyclingMTTF: r.CyclingMTTF,
					AgingMTTF:   r.AgingMTTF,
				}}}, nil
			}})
		}
	}
	// Back-to-back profile for plotting, with the trace retained.
	for _, assignment := range []string{"linux-default", "fixed-affinity"} {
		runs = append(runs, planned{"face_rec-mpeg_enc/" + assignment, func(cfg Config) (any, error) {
			seq, err := scenarioApps("face_rec-mpeg_enc", workload.Set1)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(cfg.Run, seq, fig1Policy(assignment))
			if err != nil {
				return nil, err
			}
			if assignment == "linux-default" {
				return &Fig1Result{DefaultSeq: r}, nil
			}
			return &Fig1Result{PinnedSeq: r}, nil
		}})
	}
	assemble := func(rows []any) any {
		parts, ok := complete[*Fig1Result](rows)
		if !ok {
			return nil
		}
		res := &Fig1Result{}
		for _, p := range parts {
			res.Rows = append(res.Rows, p.Rows...)
			res.DefaultSeq = cmp.Or(p.DefaultSeq, res.DefaultSeq)
			res.PinnedSeq = cmp.Or(p.PinnedSeq, res.PinnedSeq)
		}
		return res
	}
	return runs, assemble
}

// FormatFig1 renders the motivational comparison.
func FormatFig1(r *Fig1Result) string {
	var sb strings.Builder
	sb.WriteString("Fig. 1 — thread-to-core affinity influences thermal profile\n")
	sb.WriteString("(face recognition and mpeg encoding, Linux default vs fixed assignment)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tassignment\tavg T (C)\tpeak T (C)\tcycling MTTF (y)\taging MTTF (y)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\n",
			row.App, row.Assignment, row.AvgTempC, row.PeakTempC, row.CyclingMTTF, row.AgingMTTF)
	}
	w.Flush()
	fmt.Fprintf(&sb, "\nback-to-back profile (face_rec-mpeg_enc): default %0.fs, pinned %0.fs\n",
		r.DefaultSeq.ExecTimeS, r.PinnedSeq.ExecTimeS)
	return sb.String()
}
