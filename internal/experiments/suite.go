package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// SuiteRow reports one (application, policy) cell across the full ALPBench
// suite — all five applications the paper lists in Section 6, including the
// two (face_rec, sphinx) that Table 2 omits.
type SuiteRow struct {
	App                    string
	Policy                 string
	AvgTempC, PeakTempC    float64
	CyclingMTTF, AgingMTTF float64
	CombinedMTTF           float64
	ExecTimeS              float64
}

// suitePolicies adds the reactive-throttle industrial baseline to the
// paper's three policies.
var suitePolicies = []string{PolicyLinuxOndemand, PolicyThrottle, PolicyGe, PolicyProposed}

// suitePlan runs every ALPBench application (data set 1) under four
// policies — the paper's three plus a reactive thermal-throttling baseline —
// extending Table 2's three applications to the full five-app suite and
// adding the SOFR-combined lifetime. One run is one row, so a failing cell
// drops only its own row.
func suitePlan(cfg Config) ([]planned, Assemble) {
	apps := workload.AppNames()
	if cfg.Quick {
		apps = []string{"face_rec", "sphinx"}
	}
	var runs []planned
	for _, app := range apps {
		for _, pol := range suitePolicies {
			runs = append(runs, planned{app + "/" + pol, func(cfg Config) (any, error) { return runSuiteCell(cfg, app, pol) }})
		}
	}
	return runs, assembleAs[SuiteRow]
}

// runSuiteCell executes one (app, policy) cell of the suite.
func runSuiteCell(cfg Config, app, pol string) (SuiteRow, error) {
	r, err := runApp(cfg, app, workload.Set1, pol)
	if err != nil {
		return SuiteRow{}, fmt.Errorf("suite %s/%s: %w", app, pol, err)
	}
	return SuiteRow{
		App:          app,
		Policy:       pol,
		AvgTempC:     r.AvgTempC,
		PeakTempC:    r.PeakTempC,
		CyclingMTTF:  r.CyclingMTTF,
		AgingMTTF:    r.AgingMTTF,
		CombinedMTTF: r.CombinedMTTF,
		ExecTimeS:    r.ExecTimeS,
	}, nil
}

// FormatSuite renders the full-suite table.
func FormatSuite(rows []SuiteRow) string {
	var sb strings.Builder
	sb.WriteString("Full ALPBench suite (data set 1) — including face_rec and sphinx\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tpolicy\tavg T (C)\tpeak T (C)\tcycling MTTF (y)\taging MTTF (y)\tSOFR MTTF (y)\texec (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.0f\n",
			r.App, r.Policy, r.AvgTempC, r.PeakTempC, r.CyclingMTTF, r.AgingMTTF, r.CombinedMTTF, r.ExecTimeS)
	}
	w.Flush()
	return sb.String()
}
