package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LibraryRow compares the proposed controller with and without the
// signature library on a returning-application scenario.
type LibraryRow struct {
	Scenario string
	Variant  string // "relearn" (paper) or "library"
	// Relearns / Adoptions count the controller's responses to switches.
	Relearns, Adoptions    int
	AvgTempC               float64
	CyclingMTTF, AgingMTTF float64
	ExecTimeS              float64
}

// libraryPlan evaluates the signature-library extension on A-B-A style
// scenarios where applications return: the paper's controller re-learns
// from scratch on every switch, while the library variant re-recognizes the
// returning application's thermal signature and adopts its stored policy
// (adopt-then-verify), skipping the repeated exploration. One run per
// (scenario, variant) cell.
func libraryPlan(cfg Config) ([]planned, Assemble) {
	scenarios := []string{
		"tachyon-mpegdec-tachyon",
		"mpegdec-tachyon-mpegdec-tachyon",
	}
	if cfg.Quick {
		scenarios = scenarios[:1]
	}
	var runs []planned
	for _, sc := range scenarios {
		for _, variant := range []string{"relearn", "library"} {
			runs = append(runs, planned{sc + "/" + variant, func(cfg Config) (any, error) {
				seq, err := scenarioApps(sc, workload.Set1)
				if err != nil {
					return nil, err
				}
				ctl := core.DefaultConfig()
				ctl.UseSignatureLibrary = variant == "library"
				pol := &sim.ProposedPolicy{Config: &ctl}
				r, err := runScalars(cfg, seq, pol)
				if err != nil {
					return nil, fmt.Errorf("library %s/%s: %w", sc, variant, err)
				}
				agent := pol.Controller().Agent()
				return LibraryRow{
					Scenario:    sc,
					Variant:     variant,
					Relearns:    agent.Relearns(),
					Adoptions:   agent.Adoptions(),
					AvgTempC:    r.AvgTempC,
					CyclingMTTF: r.CyclingMTTF,
					AgingMTTF:   r.AgingMTTF,
					ExecTimeS:   r.ExecTimeS,
				}, nil
			}})
		}
	}
	return runs, assembleAs[LibraryRow]
}

// FormatLibraryStudy renders the comparison.
func FormatLibraryStudy(rows []LibraryRow) string {
	var sb strings.Builder
	sb.WriteString("Signature library — returning applications (A-B-A switching)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "scenario\tvariant\trelearns\tadoptions\tavg T (C)\tcycling MTTF (y)\taging MTTF (y)\texec (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.0f\n",
			r.Scenario, r.Variant, r.Relearns, r.Adoptions, r.AvgTempC, r.CyclingMTTF, r.AgingMTTF, r.ExecTimeS)
	}
	w.Flush()
	sb.WriteString("\nAdoptions replace fresh re-learns when an application's thermal signature is\nre-recognized; mistaken adoptions are reverted after verification.\n")
	return sb.String()
}
