package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationRow reports one controller variant on one workload.
type AblationRow struct {
	// Workload names the scenario ("tachyon" or the inter-app sequence).
	Workload string
	// Variant names the ablated mechanism.
	Variant string
	// The headline metrics.
	AvgTempC               float64
	CyclingMTTF, AgingMTTF float64
	ExecTimeS              float64
	// Relearns and Restores count variation-detector actions.
	Relearns, Restores int
}

// ablationVariant builds a controller configuration with one mechanism
// removed.
func ablationVariant(name string) (core.Config, error) {
	cfg := core.DefaultConfig()
	switch name {
	case "full":
		// The complete controller.
	case "coupled-sampling":
		// Ablates the paper's contribution 2: the temperature sampling
		// interval equals the decision epoch, so the state is derived from
		// (nearly) instantaneous temperature rather than a windowed
		// stress/aging computation.
		cfg.SamplingIntervalS = 15
		cfg.EpochSamples = 2 // minimum window: no cycling visibility
	case "no-hysteresis":
		// Ablates sticky action selection: greedy flapping at state-bin
		// boundaries is allowed again.
		cfg.Agent.Hysteresis = 0
	case "sarsa":
		// Algorithm swap: on-policy SARSA instead of the paper's
		// off-policy Q-learning.
		cfg.UseSARSA = true
	case "adaptive-sampling":
		// Addition rather than removal: the paper's Section 6.4 future-work
		// suggestion of learning the sampling interval online.
		cfg.AdaptiveSampling = true
	case "no-detection":
		// Ablates the Section 5.4 workload-variation detector entirely.
		cfg.StressLow = math.Inf(1)
		cfg.StressHigh = math.Inf(1)
		cfg.AgingLow = math.Inf(1)
		cfg.AgingHigh = math.Inf(1)
	default:
		return cfg, fmt.Errorf("experiments: unknown ablation variant %q", name)
	}
	return cfg, nil
}

// AblationVariants lists the controller variants evaluated by Ablation.
func AblationVariants() []string {
	return []string{"full", "coupled-sampling", "no-hysteresis", "no-detection", "sarsa", "adaptive-sampling"}
}

// ablationPlan evaluates the contribution of each controller mechanism by
// removing them one at a time, on an intra-application workload (tachyon)
// and an inter-application sequence (mpegdec-tachyon-mpegenc), one run per
// (workload, variant) cell:
//
//   - coupled-sampling removes the sampling-interval/decision-epoch
//     separation (the paper's contribution 2);
//   - no-hysteresis removes sticky action selection (see DESIGN.md);
//   - no-detection removes the inter/intra workload-variation response.
func ablationPlan(cfg Config) ([]planned, Assemble) {
	type scenario struct {
		name  string
		build func() (workload.Workload, error)
	}
	scenarios := []scenario{
		{"tachyon", func() (workload.Workload, error) { return workload.Tachyon(workload.Set1), nil }},
		{"mpegdec-tachyon-mpegenc", func() (workload.Workload, error) {
			return scenarioApps("mpegdec-tachyon-mpegenc", workload.Set1)
		}},
	}
	variants := AblationVariants()
	if cfg.Quick {
		scenarios = scenarios[:1]
		variants = []string{"full", "coupled-sampling"}
	}
	var runs []planned
	for _, sc := range scenarios {
		for _, v := range variants {
			runs = append(runs, planned{sc.name + "/" + v, func(cfg Config) (any, error) {
				ctl, err := ablationVariant(v)
				if err != nil {
					return nil, err
				}
				work, err := sc.build()
				if err != nil {
					return nil, err
				}
				pol := &sim.ProposedPolicy{Config: &ctl}
				r, err := runScalars(cfg, work, pol)
				if err != nil {
					return nil, fmt.Errorf("ablation %s/%s: %w", sc.name, v, err)
				}
				agent := pol.Controller().Agent()
				return AblationRow{
					Workload:    sc.name,
					Variant:     v,
					AvgTempC:    r.AvgTempC,
					CyclingMTTF: r.CyclingMTTF,
					AgingMTTF:   r.AgingMTTF,
					ExecTimeS:   r.ExecTimeS,
					Relearns:    agent.Relearns(),
					Restores:    agent.Restores(),
				}, nil
			}})
		}
	}
	return runs, assembleAs[AblationRow]
}

// FormatAblation renders the ablation table.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — controller mechanisms removed one at a time\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "workload\tvariant\tavg T (C)\tcycling MTTF (y)\taging MTTF (y)\texec (s)\trelearns\trestores")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.2f\t%.2f\t%.0f\t%d\t%d\n",
			r.Workload, r.Variant, r.AvgTempC, r.CyclingMTTF, r.AgingMTTF, r.ExecTimeS, r.Relearns, r.Restores)
	}
	w.Flush()
	sb.WriteString("\ncoupled-sampling ablates the paper's sampling/epoch separation;\nno-hysteresis allows greedy action flapping; no-detection disables Section 5.4;\nsarsa swaps Eq. 7 for the on-policy update; adaptive-sampling adds Section 6.4's\nonline interval tuning.\n")
	return sb.String()
}
