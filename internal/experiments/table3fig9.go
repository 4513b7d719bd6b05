package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// PerfEnergyCell is one (application, policy) measurement shared by Table 3
// (execution time) and Fig. 9 (average dynamic power and dynamic energy).
type PerfEnergyCell struct {
	App    string
	Policy string
	// ExecTimeS is the Table 3 quantity.
	ExecTimeS float64
	// AvgDynPowerW and DynamicEnergyJ are the Fig. 9 quantities.
	AvgDynPowerW   float64
	DynamicEnergyJ float64
	StaticEnergyJ  float64
}

// perfEnergyPolicies are the six columns of Table 3 / Fig. 9.
var perfEnergyPolicies = []string{
	PolicyLinuxOndemand,
	PolicyLinuxPowersave,
	PolicyLinux24,
	PolicyLinux34,
	PolicyGe,
	PolicyProposed,
}

// perfEnergyPlan runs the three applications under the six policies of
// Table 3 and Fig. 9, one run per cell.
func perfEnergyPlan(cfg Config) ([]planned, Assemble) {
	apps := []string{"tachyon", "mpeg_dec", "mpeg_enc"}
	policies := perfEnergyPolicies
	if cfg.Quick {
		apps = apps[:1]
		policies = []string{PolicyLinuxOndemand, PolicyLinuxPowersave, PolicyLinux34, PolicyProposed}
	}
	var runs []planned
	for _, app := range apps {
		for _, pol := range policies {
			runs = append(runs, planned{app + "/" + pol, func(cfg Config) (any, error) {
				r, err := runApp(cfg, app, workload.Set1, pol)
				if err != nil {
					return nil, fmt.Errorf("table3/fig9 %s/%s: %w", app, pol, err)
				}
				return PerfEnergyCell{
					App:            app,
					Policy:         pol,
					ExecTimeS:      r.ExecTimeS,
					AvgDynPowerW:   r.AvgDynPowerW,
					DynamicEnergyJ: r.DynamicEnergyJ,
					StaticEnergyJ:  r.StaticEnergyJ,
				}, nil
			}})
		}
	}
	return runs, assembleAs[PerfEnergyCell]
}

func pivotPerfEnergy(cells []PerfEnergyCell) (apps []string, byApp map[string]map[string]PerfEnergyCell) {
	byApp = map[string]map[string]PerfEnergyCell{}
	for _, c := range cells {
		if byApp[c.App] == nil {
			byApp[c.App] = map[string]PerfEnergyCell{}
			apps = append(apps, c.App)
		}
		byApp[c.App][c.Policy] = c
	}
	return apps, byApp
}

// FormatTable3 renders execution times in the paper's Table 3 layout.
func FormatTable3(cells []PerfEnergyCell) string {
	apps, byApp := pivotPerfEnergy(cells)
	var sb strings.Builder
	sb.WriteString("Table 3 — execution time (s)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tondemand\tpowersave\t2.4GHz\t3.4GHz\tGe [7]\tProposed")
	for _, app := range apps {
		m := byApp[app]
		fmt.Fprintf(w, "%s", app)
		for _, pol := range perfEnergyPolicies {
			if c, ok := m[pol]; ok {
				fmt.Fprintf(w, "\t%.0f", c.ExecTimeS)
			} else {
				fmt.Fprint(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return sb.String()
}

// FormatFig9 renders average dynamic power and energy per policy.
func FormatFig9(cells []PerfEnergyCell) string {
	apps, byApp := pivotPerfEnergy(cells)
	var sb strings.Builder
	sb.WriteString("Fig. 9 — average dynamic power (W) and dynamic energy (J)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tpolicy\tavg dynamic power (W)\tdynamic energy (J)\tstatic energy (J)")
	for _, app := range apps {
		m := byApp[app]
		for _, pol := range perfEnergyPolicies {
			if c, ok := m[pol]; ok {
				fmt.Fprintf(w, "%s\t%s\t%.1f\t%.0f\t%.0f\n", app, pol, c.AvgDynPowerW, c.DynamicEnergyJ, c.StaticEnergyJ)
			}
		}
	}
	w.Flush()
	return sb.String()
}
