package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Row is one completed tournament run: the cell's coordinates plus the
// scalar metrics the leaderboard aggregates. Rows serialize losslessly
// through the durable journal and the cluster completion payload (Go's
// shortest-form float64 JSON encoding round-trips exactly), which is what
// makes standalone and sharded tournaments bit-identical.
type Row struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Seed is the spec-level base seed of the cell; Repeat its repeat index.
	Seed   int64 `json:"seed"`
	Repeat int   `json:"repeat"`
	// ExecTimeS is simulated execution time — no wall-clock values appear
	// in rows, by design.
	ExecTimeS    float64 `json:"exec_time_s"`
	AvgTempC     float64 `json:"avg_temp_c"`
	PeakTempC    float64 `json:"peak_temp_c"`
	CyclingMTTF  float64 `json:"cycling_mttf_y"`
	AgingMTTF    float64 `json:"aging_mttf_y"`
	CombinedMTTF float64 `json:"combined_mttf_y"`
	// MeanReward is the run's mean granted reward (0 for policies without
	// a reward signal); DecisionEpochs the learner's decision-epoch count.
	MeanReward     float64 `json:"mean_reward"`
	DecisionEpochs int     `json:"decision_epochs"`
	// ConvergeEpoch is the learning-curve convergence verdict: the 1-based
	// decision epoch at which the greedy policy became permanently stable
	// (per the sliding-window detector), -1 when the sampled learner never
	// converged, and 0 for policies with no learning curve to sample.
	ConvergeEpoch int `json:"converge_epoch"`
	// CoreDamageShare is the per-core share of the run's thermal-cycling
	// damage (Eq. 6 stress), summing to 1 — or all zeros when the run
	// closed no plastic cycles.
	CoreDamageShare []float64 `json:"core_damage_share,omitempty"`
}

// Cells is a drop-in planner for the job subsystem (it matches the pool's
// Planner signature): tournament jobs expand from the campaign document
// carried on cfg.CampaignJSON, every other experiment delegates to
// experiments.Cells. Installing it on the pool — and using it in the cluster
// worker's executor — is all it takes for the same spec to run standalone,
// pooled, or sharded.
func Cells(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
	if id != Experiment {
		return experiments.Cells(cfg, id)
	}
	spec, err := ParseSpec(cfg.CampaignJSON)
	if err != nil {
		return nil, nil, err
	}
	plan := spec.plan()
	cells := make([]experiments.Cell, len(plan))
	for i, c := range plan {
		c := c
		cells[i] = experiments.Cell{
			Key: fmt.Sprintf("tournament/%s/%s/s%d/r%d", c.Policy, c.Workload, c.Seed, c.Repeat),
			Run: func(ctx context.Context) (any, error) { return runCell(traceCfg(ctx, cfg), spec, c) },
		}
	}
	assemble := func(rows []any) any {
		out := make([]Row, 0, len(rows))
		for _, r := range rows {
			if r != nil {
				out = append(out, r.(Row))
			}
		}
		return out
	}
	return cells, assemble, nil
}

// traceCfg threads a span carried on ctx (the service's per-cell span) into
// the simulation config, mirroring the experiments package's planner.
func traceCfg(ctx context.Context, cfg experiments.Config) experiments.Config {
	if tr, span := telemetry.SpanFromContext(ctx); tr != nil {
		cfg.Run.Tracer = tr
		cfg.Run.TraceParent = span
	}
	return cfg
}

// runCell executes one tournament cell: instantiate the registered policy
// with the cell's derived seed (and the resolved warm-start checkpoint, if
// its kind belongs to the policy), run the workload, collect the row.
func runCell(cfg experiments.Config, spec *Spec, c cellPlan) (Row, error) {
	var ckpt *policy.Checkpoint
	if len(cfg.WarmCheckpoint) > 0 {
		var err error
		if ckpt, err = policy.DecodeCheckpoint(cfg.WarmCheckpoint); err != nil {
			return Row{}, err
		}
	}
	pol, err := policy.New(c.Policy, policy.Options{Seed: c.agentSeed(), Checkpoint: ckpt})
	if err != nil {
		return Row{}, err
	}
	work, err := parseWorkload(c.Workload, spec.dataSet())
	if err != nil {
		return Row{}, err
	}
	rc := cfg.Run
	rc.DiscardTrace = true
	// Tournament cells always sample the learning curve: sampling is
	// observation-only (it never touches a policy's action-selection RNG),
	// so rows stay bit-identical with and without it across standalone,
	// pooled and sharded execution — while every row gains the convergence
	// verdict and per-core damage attribution.
	var sampled *rl.LearningSampler
	rc.LearningObserver = func(_, _ string, s *rl.LearningSampler) { sampled = s }
	res, err := sim.Run(rc, work, pol)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Policy: c.Policy, Workload: c.Workload, Seed: c.Seed, Repeat: c.Repeat,
		ExecTimeS: res.ExecTimeS, AvgTempC: res.AvgTempC, PeakTempC: res.PeakTempC,
		CyclingMTTF: res.CyclingMTTF, AgingMTTF: res.AgingMTTF, CombinedMTTF: res.CombinedMTTF,
		CoreDamageShare: res.CoreDamageShare,
	}
	if rs, ok := pol.(interface{ RewardStats() (float64, int) }); ok {
		if sum, n := rs.RewardStats(); n > 0 {
			row.MeanReward = sum / float64(n)
		}
	}
	if ec, ok := pol.(interface{ DecisionEpochs() int }); ok {
		row.DecisionEpochs = ec.DecisionEpochs()
	}
	if sampled != nil {
		row.ConvergeEpoch = sampled.ConvergedEpoch() // -1 when never converged
		if cfg.LearningCurves != nil {
			cfg.LearningCurves.Add(rl.RunCurve{
				Policy: c.Policy, Workload: c.Workload, Seed: c.Seed, Repeat: c.Repeat,
				Points: sampled.Points(), Summary: sampled.Summary(),
			})
		}
	}
	return row, nil
}

// parseWorkload resolves a spec workload name: a single application or a
// "-"-joined application sequence.
func parseWorkload(name string, ds workload.DataSet) (workload.Workload, error) {
	parts := strings.Split(name, "-")
	if len(parts) == 1 {
		app, err := workload.ByName(name, ds)
		if err != nil {
			return nil, &UnknownWorkloadError{Workload: name, Err: err}
		}
		return app, nil
	}
	apps := make([]*workload.Application, 0, len(parts))
	for _, p := range parts {
		app, err := workload.ByName(p, ds)
		if err != nil {
			return nil, &UnknownWorkloadError{Workload: name, Err: err}
		}
		apps = append(apps, app)
	}
	return workload.NewSequence(apps...), nil
}

// DecodeRow rebuilds one tournament cell's Row from its JSON serialization,
// the tournament counterpart of experiments.DecodeCellRow for journal
// recovery.
func DecodeRow(data []byte) (any, error) {
	var r Row
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("campaign: decode row: %w", err)
	}
	return r, nil
}

// ApplyWarmPayload threads a resolved warm-start checkpoint payload into an
// experiment config. A proposed-kind payload (including the historical
// untagged format) is dimension-validated against the default controller and
// decoded into cfg.WarmStart; any other kind rides along as raw bytes on
// cfg.WarmCheckpoint for the tournament cells to route — and is rejected for
// non-tournament experiments, where no policy could consume it. The job
// service and the cluster worker share this helper so their warm-start
// semantics cannot drift.
func ApplyWarmPayload(cfg *experiments.Config, experiment string, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		return err
	}
	cfg.WarmCheckpoint = payload
	dflt := core.DefaultConfig()
	sa, err := ck.AgentFor(policy.KindProposed, dflt.States.NumStates(), len(dflt.Actions))
	if err != nil {
		return err
	}
	if sa != nil {
		cfg.WarmStart = sa.WarmTable()
		return nil
	}
	if experiment != Experiment {
		return fmt.Errorf("campaign: checkpoint kind %q cannot warm-start experiment %q (only a tournament routes it to the policy that owns it)",
			ck.NormalizedKind(), experiment)
	}
	return nil
}
