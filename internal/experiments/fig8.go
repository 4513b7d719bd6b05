package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig8Row is one (states, actions) point of the convergence sweep.
type Fig8Row struct {
	// States and Actions are the Q-table dimensions.
	States, Actions int
	// Iterations is the number of decision epochs until the learner's
	// visited-pair convergence criterion fired (the figure's z axis).
	Iterations int
	// CyclingMTTF and AgingMTTF are the resulting lifetimes, the
	// "(stress, aging)" coordinates the paper annotates per design point.
	CyclingMTTF, AgingMTTF float64
}

// fig8Plan sweeps the Q-table size on the mpeg decoding application, one
// run per (states, actions) cell: iterations to convergence grow with the
// table size, while finer tables give the controller finer thermal control
// (better MTTF).
func fig8Plan(cfg Config) ([]planned, Assemble) {
	sizes := []int{4, 8, 12}
	if cfg.Quick {
		sizes = []int{4, 12}
	}
	var runs []planned
	for _, ns := range sizes {
		for _, na := range sizes {
			runs = append(runs, planned{fmt.Sprintf("%dx%d", ns, na), func(cfg Config) (any, error) {
				// A longer mpeg_dec variant so even the largest table
				// converges within the run.
				sp := workload.MPEGDecSpec(workload.Set1)
				sp.Iterations *= 3

				ctl := core.DefaultConfig()
				ctl.States = core.StateSpaceOfSize(ns)
				ctl.Actions = core.ActionSpaceOfSize(na)
				ctl.Agent = rl.DefaultAgentConfig(ctl.States.NumStates(), len(ctl.Actions))
				// Slow the learning-rate decay so exploration persists long
				// enough to fill the larger tables.
				ctl.Agent.AlphaDecay = 0.97
				pol := &sim.ProposedPolicy{Config: &ctl}
				r, err := runScalars(cfg, sp.Generate(), pol)
				if err != nil {
					return nil, fmt.Errorf("fig8 %dx%d: %w", ns, na, err)
				}
				return Fig8Row{
					States:      ctl.States.NumStates(),
					Actions:     len(ctl.Actions),
					Iterations:  pol.Controller().LastFillEpoch(),
					CyclingMTTF: r.CyclingMTTF,
					AgingMTTF:   r.AgingMTTF,
				}, nil
			}})
		}
	}
	return runs, assembleAs[Fig8Row]
}

// FormatFig8 renders the convergence sweep.
func FormatFig8(rows []Fig8Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — convergence vs Q-table size (mpeg_dec); coordinates are (cycling, aging) MTTF\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "states\tactions\titerations\t(cycling MTTF, aging MTTF)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t(%.2f, %.2f)\n", r.States, r.Actions, r.Iterations, r.CyclingMTTF, r.AgingMTTF)
	}
	w.Flush()
	sb.WriteString("\nTraining iterations grow with |S| x |A|; larger tables give finer control (higher MTTF).\n")
	return sb.String()
}
