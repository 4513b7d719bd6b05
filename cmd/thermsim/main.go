// Command thermsim regenerates the paper's tables and figures on the
// simulated quad-core platform.
//
// Usage:
//
//	thermsim [-quick] [-repeats N] [-events trace.jsonl] <experiment>...
//	thermsim -list
//	thermsim all
//
// Experiments: fig1, table2, fig3, fig45, fig6, fig7, fig8, table3, fig9,
// plus the repository's ablation, seeds (RL-seed robustness) and manycore
// (scalability) studies. -json emits machine-readable rows.
//
// -events FILE dumps the RL controller's decision trace (one JSON event per
// epoch: state bin, action, reward, q_reset/snapshot_restore markers) to
// FILE after the experiments finish; "-" writes to stderr so it composes
// with -json on stdout. -log-level debug logs every decision epoch live.
//
// -trace FILE dumps the hierarchical span trace (run → window/epoch spans
// with per-core thermal and RL attributes) after the experiments finish. A
// .jsonl suffix selects the archival one-span-per-line form; any other name
// gets Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// -learning-csv FILE samples every learning policy's learning curve and
// writes the per-epoch points (reward, mean |TD error|, learning rate,
// state-visit coverage, greedy-policy stability, attributed cycling damage)
// as one deterministic CSV after the experiments finish — one row per
// (policy, workload, seed, repeat, epoch). Sampling is observation-only, so
// results are bit-identical with and without it.
//
// -save-agent FILE persists the RL agent's learned state (live Q-table,
// exploration-end snapshot, learning rate) from the last proposed-policy
// run; -load-agent FILE warm-starts every proposed-policy run from such a
// file instead of a zero Q-table. The file may hold any registered policy's
// checkpoint — non-proposed kinds are only routable inside a tournament.
//
// -campaign FILE runs a declarative tournament instead of the paper
// experiments: FILE is an experiments.json document (policies x workloads x
// seeds x repeats, see the campaign package) and the output is a per-policy
// leaderboard — aligned text by default, machine-readable with -json, plus
// a deterministic CSV file with -leaderboard-csv. The identical document
// submitted to thermserved's POST /v1/campaigns produces bit-identical
// rows and leaderboard.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (fast smoke mode)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON rows instead of tables")
	repeats := flag.Int("repeats", 0, "seed repeats for learning-sensitive sweeps (0 = default)")
	list := flag.Bool("list", false, "list available experiments and exit")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	eventsOut := flag.String("events", "", "write the RL decision-event trace as JSONL to this file (\"-\" = stderr)")
	traceOut := flag.String("trace", "", "write the run/window/epoch span trace to this file (.jsonl = archival JSONL, anything else = Chrome trace-event JSON for Perfetto)")
	saveAgent := flag.String("save-agent", "", "write the RL agent state of the last proposed-policy run to this file")
	loadAgent := flag.String("load-agent", "", "warm-start runs from policy checkpoint state in this file")
	campaignFile := flag.String("campaign", "", "run the declarative tournament in this experiments.json document instead of paper experiments")
	leaderboardCSV := flag.String("leaderboard-csv", "", "with -campaign: also write the leaderboard as deterministic CSV to this file")
	learningCSV := flag.String("learning-csv", "", "write every learning policy's per-epoch learning curve as deterministic CSV to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-quick] [-repeats N] [-events FILE] <experiment>...|all\n", os.Args[0])
		fmt.Fprintf(os.Stderr, "       %s -campaign experiments.json [-leaderboard-csv FILE]\n", os.Args[0])
		fmt.Fprintf(os.Stderr, "experiments: %v\n", experiments.ExperimentNames())
		flag.PrintDefaults()
	}
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(2)
	}
	slog.SetDefault(telemetry.NewLogger(os.Stderr, level))

	if *list {
		for _, id := range experiments.ExperimentNames() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if *campaignFile == "" {
		if len(ids) == 0 {
			flag.Usage()
			os.Exit(2)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = experiments.ExperimentNames()
		}
	} else if len(ids) > 0 {
		fmt.Fprintln(os.Stderr, "thermsim: -campaign replaces the positional experiment list")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Repeats = *repeats

	var recorder *telemetry.Recorder
	if *eventsOut != "" {
		recorder = telemetry.NewRecorder(0)
		cfg.Run.Recorder = recorder
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(0)
		cfg.Run.Tracer = tracer
	}
	var curves *rl.CurveSet
	if *learningCSV != "" {
		curves = rl.NewCurveSet()
		// Tournament cells deposit into cfg.LearningCurves with full cell
		// coordinates; plain experiment runs sample through the run observer.
		cfg.LearningCurves = curves
		cfg.Run.LearningObserver = func(pol, wl string, s *rl.LearningSampler) {
			curves.Add(rl.RunCurve{Policy: pol, Workload: wl, Points: s.Points(), Summary: s.Summary()})
		}
	}

	if *loadAgent != "" {
		payload, err := os.ReadFile(*loadAgent)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: -load-agent:", err)
			os.Exit(1)
		}
		// ApplyWarmPayload routes the checkpoint by kind, with typed
		// dimension validation for the proposed controller's tables.
		warmFor := "cli"
		if *campaignFile != "" {
			warmFor = campaign.Experiment
		}
		if err := campaign.ApplyWarmPayload(&cfg, warmFor, payload); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: -load-agent:", err)
			os.Exit(1)
		}
	}
	var lastAgent *rl.Agent
	if *saveAgent != "" {
		cfg.Run.AgentObserver = func(a *rl.Agent) { lastAgent = a }
	}

	// Campaign-shaped experiments abort between cells on ^C instead of
	// finishing a potentially hour-long sweep.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *campaignFile != "" {
		doc, err := os.ReadFile(*campaignFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: -campaign:", err)
			os.Exit(1)
		}
		cfg.CampaignJSON = doc
		runCampaign(ctx, cfg, *asJSON, *leaderboardCSV)
		dumpEvents(recorder, *eventsOut)
		dumpTrace(tracer, *traceOut)
		dumpLearning(curves, *learningCSV)
		saveAgentFile(lastAgent, *saveAgent)
		return
	}

	if *asJSON {
		all := map[string]any{}
		for _, id := range ids {
			rows, err := experiments.RunRowsCtx(ctx, cfg, id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "thermsim: %s: %v\n", id, err)
				os.Exit(1)
			}
			all[id] = rows
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim:", err)
			os.Exit(1)
		}
		dumpEvents(recorder, *eventsOut)
		dumpTrace(tracer, *traceOut)
		dumpLearning(curves, *learningCSV)
		saveAgentFile(lastAgent, *saveAgent)
		return
	}

	for _, id := range ids {
		start := time.Now()
		out, err := experiments.RunCtx(ctx, cfg, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thermsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (completed in %v) ===\n%s\n", id, time.Since(start).Round(time.Millisecond), out)
	}
	dumpEvents(recorder, *eventsOut)
	dumpTrace(tracer, *traceOut)
	dumpLearning(curves, *learningCSV)
	saveAgentFile(lastAgent, *saveAgent)
}

// runCampaign expands the tournament document on cfg.CampaignJSON, runs its
// cells sequentially and prints the per-policy leaderboard: aligned text (or
// -json), plus a deterministic CSV surface when csvPath is set. The rows are
// bit-identical to the same document submitted to thermserved, standalone or
// clustered — that equivalence is what makes the CSV comparable across runs.
func runCampaign(ctx context.Context, cfg experiments.Config, asJSON bool, csvPath string) {
	spec, err := campaign.ParseSpec(cfg.CampaignJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
	cells, assemble, err := campaign.Cells(cfg, campaign.Experiment)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
	rows := make([]any, len(cells))
	for i, cell := range cells {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "thermsim: interrupted after %d/%d cells\n", i, len(cells))
			os.Exit(1)
		}
		start := time.Now()
		row, err := cell.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thermsim: %s: %v\n", cell.Key, err)
			os.Exit(1)
		}
		rows[i] = row
		slog.Info("cell done", "cell", cell.Key, "n", i+1, "of", len(cells),
			"wall", time.Since(start).Round(time.Millisecond))
	}
	trows := assemble(rows).([]campaign.Row)
	entries := campaign.Leaderboard(trows)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(map[string]any{
			"name": spec.Name, "leaderboard": entries, "rows": trows,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim:", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(campaign.FormatLeaderboard(spec.Name, entries))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: -leaderboard-csv:", err)
			os.Exit(1)
		}
		err = campaign.WriteCSV(f, entries)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: -leaderboard-csv:", err)
			os.Exit(1)
		}
	}
}

// saveAgentFile persists the last proposed-policy run's agent for
// -save-agent. A run list with no proposed-policy run leaves nothing to
// save; that is reported as an error so scripts notice.
func saveAgentFile(a *rl.Agent, path string) {
	if path == "" {
		return
	}
	if a == nil {
		fmt.Fprintln(os.Stderr, "thermsim: -save-agent: no proposed-policy run produced an agent")
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: -save-agent:", err)
		os.Exit(1)
	}
	if err := a.Save(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "thermsim: -save-agent:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: -save-agent:", err)
		os.Exit(1)
	}
}

// dumpLearning writes the sampled learning curves as one deterministic CSV
// for -learning-csv. Runs that sampled nothing (deterministic baselines) are
// simply absent; a run list with no learner yields a header-only file.
func dumpLearning(curves *rl.CurveSet, path string) {
	if curves == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: -learning-csv:", err)
		os.Exit(1)
	}
	err = curves.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: -learning-csv:", err)
		os.Exit(1)
	}
}

// dumpEvents writes the recorded decision trace as JSONL to path ("-" means
// stderr, keeping stdout clean for -json rows).
func dumpEvents(rec *telemetry.Recorder, path string) {
	if rec == nil {
		return
	}
	var w io.Writer
	if path == "-" {
		w = os.Stderr
	} else {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsim: events:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteJSONL(w); err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: events:", err)
		os.Exit(1)
	}
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "thermsim: events: ring buffer dropped the oldest %d events (kept %d)\n", n, rec.Len())
	}
}

// dumpTrace writes the collected span trace to path: a .jsonl suffix selects
// the archival one-span-per-line form, anything else the Chrome trace-event
// JSON that chrome://tracing and Perfetto open directly.
func dumpTrace(tr *telemetry.Tracer, path string) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: trace:", err)
		os.Exit(1)
	}
	spans := tr.Snapshot()
	if strings.HasSuffix(path, ".jsonl") {
		err = telemetry.WriteSpansJSONL(f, spans)
	} else {
		err = telemetry.WriteChromeTrace(f, spans)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsim: trace:", err)
		os.Exit(1)
	}
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "thermsim: trace: span ring dropped the oldest %d spans (kept %d)\n", n, tr.Len())
	}
}
