package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// ConcurrentRow reports one (mix, policy) cell of the concurrent-application
// study.
type ConcurrentRow struct {
	Mix                    string
	Policy                 string
	AvgTempC, PeakTempC    float64
	CyclingMTTF, AgingMTTF float64
	CombinedMTTF           float64
	ExecTimeS              float64
}

// concurrentMixes are the co-scheduled application pairs: a hot compute app
// with a bursty one (the interesting case — their phases interleave on the
// shared cores), and two bursty apps.
var concurrentMixes = [][2]string{
	{"tachyon", "mpeg_dec"},
	{"mpeg_enc", "mpeg_dec"},
}

// buildMix composes a concurrent workload from halved application instances
// (so the total work stays comparable to a single-app run).
func buildMix(a, b string) (*workload.Concurrent, error) {
	mk := func(name string) (*workload.Application, error) {
		var sp workload.Spec
		switch name {
		case "tachyon":
			sp = workload.TachyonSpec(workload.Set1)
		case "mpeg_dec":
			sp = workload.MPEGDecSpec(workload.Set1)
		case "mpeg_enc":
			sp = workload.MPEGEncSpec(workload.Set1)
		default:
			return nil, fmt.Errorf("experiments: unknown mix app %q", name)
		}
		sp.Iterations /= 2
		return sp.Generate(), nil
	}
	appA, err := mk(a)
	if err != nil {
		return nil, err
	}
	appB, err := mk(b)
	if err != nil {
		return nil, err
	}
	return workload.NewConcurrent(appA, appB), nil
}

// concurrentPlan evaluates the paper's first future-work extension: two
// applications co-scheduled on the chip, with 12 threads contending for the
// four cores, under the three policies, one run per cell.
func concurrentPlan(cfg Config) ([]planned, Assemble) {
	mixes := concurrentMixes
	if cfg.Quick {
		mixes = mixes[:1]
	}
	var runs []planned
	for _, mix := range mixes {
		for _, pol := range table2Policies {
			runs = append(runs, planned{mix[0] + "+" + mix[1] + "/" + pol, func(cfg Config) (any, error) {
				con, err := buildMix(mix[0], mix[1])
				if err != nil {
					return nil, err
				}
				p, err := newPolicy(cfg, pol)
				if err != nil {
					return nil, err
				}
				r, err := runScalars(cfg, con, p)
				if err != nil {
					return nil, fmt.Errorf("concurrent %s/%s: %w", con.Name(), pol, err)
				}
				return ConcurrentRow{
					Mix:          con.Name(),
					Policy:       pol,
					AvgTempC:     r.AvgTempC,
					PeakTempC:    r.PeakTempC,
					CyclingMTTF:  r.CyclingMTTF,
					AgingMTTF:    r.AgingMTTF,
					CombinedMTTF: r.CombinedMTTF,
					ExecTimeS:    r.ExecTimeS,
				}, nil
			}})
		}
	}
	return runs, assembleAs[ConcurrentRow]
}

// FormatConcurrent renders the concurrent-application table.
func FormatConcurrent(rows []ConcurrentRow) string {
	var sb strings.Builder
	sb.WriteString("Concurrent applications (two apps co-scheduled; 12 threads on 4 cores)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "mix\tpolicy\tavg T (C)\tpeak T (C)\tcycling MTTF (y)\taging MTTF (y)\tSOFR MTTF (y)\texec (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.0f\n",
			r.Mix, r.Policy, r.AvgTempC, r.PeakTempC, r.CyclingMTTF, r.AgingMTTF, r.CombinedMTTF, r.ExecTimeS)
	}
	w.Flush()
	return sb.String()
}
