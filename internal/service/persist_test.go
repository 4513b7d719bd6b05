package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// openJournal opens a journal under dir without fsync (tests only exercise
// process-crash durability, where the page cache survives).
func openJournal(t *testing.T, dir string) *durable.Journal {
	t.Helper()
	j, err := durable.OpenJournal(dir, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// suiteRowPlan plans n instant cells with deterministic, distinguishable
// SuiteRow outputs, so journaled rows round-trip through the typed decoder.
func suiteRowPlan(n int) Planner {
	return func(experiments.Config, string) ([]experiments.Cell, experiments.Assemble, error) {
		cells := make([]experiments.Cell, n)
		for i := range cells {
			row := experiments.SuiteRow{App: fmt.Sprintf("app-%d", i), Policy: "stub", AvgTempC: float64(i) + 0.5}
			cells[i] = experiments.Cell{
				Key: fmt.Sprintf("stub/%d", i),
				Run: func(context.Context) (any, error) { return row, nil },
			}
		}
		return cells, func(rows []any) any {
			out := make([]experiments.SuiteRow, 0, len(rows))
			for _, r := range rows {
				if r != nil {
					out = append(out, r.(experiments.SuiteRow))
				}
			}
			return out
		}, nil
	}
}

// gateJournal forwards to a real journal until cut, then silently drops
// records — the WAL then holds exactly the prefix a SIGKILL at that moment
// would have left behind, while the in-process pool still unwinds cleanly.
type gateJournal struct {
	mu  sync.Mutex
	j   Journal
	cut bool
}

func (g *gateJournal) Append(rec durable.Record) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cut {
		return nil
	}
	return g.j.Append(rec)
}

func (g *gateJournal) Cut() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cut = true
}

// TestJournaledLifecycleAndSweep covers the journal hook end to end at the
// store level: a finished job and a cancelled queued-but-never-started job
// are both recoverable from disk, and a TTL sweep drops evicted jobs from
// the durable state so compaction cannot resurrect them.
func TestJournaledLifecycleAndSweep(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	store := NewStore(100 * time.Millisecond)
	store.SetJournal(j)
	pool := NewPool(store, 1)
	pool.plan = suiteRowPlan(1)
	pool.Start()
	t.Cleanup(pool.Stop)

	// job1's single cell blocks the only worker, so job2 stays queued and
	// never starts.
	release := make(chan struct{})
	started := make(chan struct{})
	pool.plan = stubPlan([]experiments.Cell{{Key: "block", Run: func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return experiments.SuiteRow{App: "blocked", Policy: "stub"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}})
	job1, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pool.plan = suiteRowPlan(1)
	job2, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := store.Get(job2.ID); snap.State != StatePending {
		t.Fatalf("job2 should still be queued, got %s", snap.State)
	}
	if _, err := store.Cancel(job2.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if final := waitDone(t, pool, job1.ID); final.State != StateDone {
		t.Fatalf("job1 finished %s: %s", final.State, final.Error)
	}

	// Reopen and check the durable view of both jobs.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, dir)
	st := j2.Recovered()
	js1, ok := st.Jobs[job1.ID]
	if !ok || js1.State != "done" || len(js1.Cells) != 1 {
		t.Fatalf("job1 durable state: %+v", js1)
	}
	js2, ok := st.Jobs[job2.ID]
	if !ok || js2.State != "cancelled" || !js2.CancelRequested {
		t.Fatalf("queued-job cancellation not journaled like a running one: %+v", js2)
	}

	// A fresh store/pool recovers both: the finished rows come back typed,
	// the cancellation stays terminal.
	store2 := NewStore(0)
	store2.SetJournal(j2)
	pool2 := NewPool(store2, 1)
	pool2.plan = suiteRowPlan(1)
	if restored, resumed := pool2.Recover(st); restored != 2 || resumed != 0 {
		t.Fatalf("recover: restored %d resumed %d, want 2/0", restored, resumed)
	}
	if snap, _ := store2.Get(job2.ID); snap.State != StateCancelled {
		t.Errorf("recovered job2 state %s, want cancelled", snap.State)
	}
	rows, _ := store2.Rows(job1.ID)
	if got := rows.([]experiments.SuiteRow); len(got) != 1 || got[0].App != "blocked" {
		t.Errorf("recovered job1 rows: %v", rows)
	}

	// Sweep after the TTL: both jobs evict from memory AND from disk.
	store2.mu.Lock()
	store2.now = func() time.Time { return time.Now().Add(time.Hour) }
	store2.mu.Unlock()
	if n := store2.Sweep(); n != 2 {
		t.Fatalf("sweep evicted %d, want 2", n)
	}
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, dir)
	defer j3.Close()
	if got := len(j3.Recovered().Jobs); got != 0 {
		t.Errorf("evicted jobs survived compaction: %d entries", got)
	}
}

// TestRecoveryTruncateEveryOffset is the crash-recovery property test: a
// journaled job's WAL is truncated at EVERY byte offset, and every prefix
// must reopen cleanly and recover — via resume when records were lost — to
// rows bit-identical to the uninterrupted run.
func TestRecoveryTruncateEveryOffset(t *testing.T) {
	const cells = 3
	dir := t.TempDir()
	j := openJournal(t, dir)
	store := NewStore(0)
	store.SetJournal(j)
	pool := NewPool(store, 2)
	pool.plan = suiteRowPlan(cells)
	pool.Start()
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, pool, job.ID); final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	baselineAny, _ := store.Rows(job.ID)
	baseline := baselineAny.([]experiments.SuiteRow)
	pool.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	scratch := t.TempDir()
	for off := 0; off <= len(wal); off++ {
		sub := filepath.Join(scratch, fmt.Sprintf("off-%04d", off))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), wal[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		jr := openJournal(t, sub)
		st := jr.Recovered()
		if len(st.Jobs) == 0 {
			// The submit frame itself was torn away: nothing to recover.
			jr.Close()
			continue
		}
		store2 := NewStore(0)
		store2.SetJournal(jr)
		pool2 := NewPool(store2, 2)
		pool2.plan = suiteRowPlan(cells)
		pool2.Recover(st)
		pool2.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		final, err := pool2.Wait(ctx, job.ID)
		cancel()
		if err != nil {
			t.Fatalf("offset %d: wait: %v", off, err)
		}
		if final.State != StateDone {
			t.Fatalf("offset %d: recovered job finished %s: %s", off, final.State, final.Error)
		}
		rowsAny, _ := store2.Rows(job.ID)
		rows := rowsAny.([]experiments.SuiteRow)
		if len(rows) != len(baseline) {
			t.Fatalf("offset %d: %d rows, want %d", off, len(rows), len(baseline))
		}
		for i := range rows {
			if rows[i] != baseline[i] {
				t.Fatalf("offset %d: row %d differs: %+v vs %+v", off, i, rows[i], baseline[i])
			}
		}
		pool2.Stop()
		jr.Close()
	}
}

// TestCrashRestartResumesSuite is the kill-and-restart e2e: a real quick
// suite is interrupted after at least two committed cells — the journal is
// cut, leaving exactly the WAL prefix a SIGKILL would have — and a fresh
// store/pool recovers it, re-runs only the uncommitted cells, and produces
// rows bit-identical to the sequential baseline. A graceful shutdown then
// compacts, and a third incarnation restores the finished job's rows from
// the snapshot alone.
func TestCrashRestartResumesSuite(t *testing.T) {
	seq, err := experiments.Suite(context.Background(), experiments.Config{Run: experiments.DefaultConfig().Run, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j := openJournal(t, dir)
	gate := &gateJournal{j: j}
	store := NewStore(0)
	store.SetJournal(gate)
	pool := NewPool(store, 4)
	// Hold the last cell hostage so the job cannot finish before the "kill":
	// it only ever unblocks through cancellation, exactly like a cell caught
	// mid-flight by a real SIGKILL.
	hold := make(chan struct{})
	pool.plan = func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
		cells, asm, err := experiments.Cells(cfg, id)
		if err != nil {
			return nil, nil, err
		}
		orig := cells[len(cells)-1].Run
		cells[len(cells)-1].Run = func(ctx context.Context) (any, error) {
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return orig(ctx)
		}
		return cells, asm, nil
	}
	pool.Start()
	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if snap, _ := store.Get(job.ID); snap.Progress.DoneCells >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cells completed in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	gate.Cut() // "SIGKILL": everything after this instant never reaches disk
	pool.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the journal replays an interrupted job; recovery resumes it.
	j2 := openJournal(t, dir)
	st := j2.Recovered()
	js := st.Jobs[job.ID]
	if js == nil || js.Terminal() {
		t.Fatalf("job should recover as interrupted, got %+v", js)
	}
	committed := len(js.Cells)
	if committed < 2 {
		t.Fatalf("journal lost committed cells: %d", committed)
	}
	store2 := NewStore(0)
	store2.SetJournal(j2)
	pool2 := NewPool(store2, 4)
	if restored, resumed := pool2.Recover(st); restored != 0 || resumed != 1 {
		t.Fatalf("recover: restored %d resumed %d, want 0/1", restored, resumed)
	}
	pool2.Start()
	final := waitDone(t, pool2, job.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job finished %s: %s", final.State, final.Error)
	}
	if got := pool2.CellsCompleted(); got != int64(len(seq)-committed) {
		t.Errorf("resume re-ran committed cells: ran %d, want %d", got, len(seq)-committed)
	}
	rowsAny, _ := store2.Rows(job.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if len(rows) != len(seq) {
		t.Fatalf("resumed job has %d rows, sequential %d", len(rows), len(seq))
	}
	for i := range rows {
		if rows[i] != seq[i] {
			t.Errorf("row %d differs after crash recovery: %+v vs %+v", i, rows[i], seq[i])
		}
	}

	// Graceful shutdown compacts; the next boot restores from the snapshot.
	pool2.Stop()
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openJournal(t, dir)
	defer j3.Close()
	store3 := NewStore(0)
	pool3 := NewPool(store3, 1)
	if restored, resumed := pool3.Recover(j3.Recovered()); restored != 1 || resumed != 0 {
		t.Fatalf("post-compaction recover: restored %d resumed %d, want 1/0", restored, resumed)
	}
	rowsAny, _ = store3.Rows(job.ID)
	rows = rowsAny.([]experiments.SuiteRow)
	for i := range rows {
		if rows[i] != seq[i] {
			t.Errorf("row %d differs after snapshot restore: %+v vs %+v", i, rows[i], seq[i])
		}
	}
}

// trainedAgentJSON builds synthetic learned agent state (a non-zero Q-table)
// serialized the way rl.Agent.Save writes it.
func trainedAgentJSON(t *testing.T) []byte {
	t.Helper()
	a := rl.NewAgent(core.DefaultConfig().Agent)
	for s := 0; s < a.Q().NumStates(); s++ {
		for ac := 0; ac < a.Q().NumActions(); ac++ {
			a.Q().Set(s, ac, float64(s)+float64(ac)/10)
		}
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointWarmStartRoundTrip is the warm-start e2e: agent state is
// POSTed as a checkpoint, a warm_start submission resolves it, and the job's
// decision-event trace proves the first epoch ran on the adopted table (a
// warm_start event with a far smaller learning rate than a cold run).
func TestCheckpointWarmStartRoundTrip(t *testing.T) {
	ts, pool, _ := startServer(t, 2)
	cs, err := durable.OpenCheckpoints(filepath.Join(t.TempDir(), "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	pool.SetCheckpoints(cs)

	payload := trainedAgentJSON(t)
	resp, err := http.Post(ts.URL+"/v1/checkpoints/warm1", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("checkpoint put: %d", resp.StatusCode)
	}
	// Round trip: list shows it, get returns the identical bytes.
	var list struct {
		Checkpoints []durable.CheckpointInfo `json:"checkpoints"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/checkpoints", nil, &list); code != http.StatusOK {
		t.Fatalf("checkpoint list: %d", code)
	}
	if len(list.Checkpoints) != 1 || list.Checkpoints[0].Name != "warm1" {
		t.Fatalf("checkpoint list: %+v", list.Checkpoints)
	}
	got, err := http.Get(ts.URL + "/v1/checkpoints/warm1")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(got.Body)
	got.Body.Close()
	if !bytes.Equal(body.Bytes(), payload) {
		t.Error("checkpoint payload did not round-trip byte-identically")
	}
	// Bad uploads are rejected before they can poison a warm start.
	resp, err = http.Post(ts.URL+"/v1/checkpoints/bad", "application/json", strings.NewReader(`{"alpha": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid agent state accepted: %d", resp.StatusCode)
	}

	// The planner runs one real RL-controlled simulation, building its
	// policy through PolicyFor so the resolved warm-start table applies.
	pool.plan = func(cfg experiments.Config, _ string) ([]experiments.Cell, experiments.Assemble, error) {
		run := cfg.Run
		cell := experiments.Cell{Key: "rl", Run: func(context.Context) (any, error) {
			pol, err := experiments.PolicyFor(cfg, experiments.PolicyProposed)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(run, workload.Tachyon(workload.Set1), pol)
			if err != nil {
				return nil, err
			}
			return res.ExecTimeS, nil
		}}
		return []experiments.Cell{cell}, func(rows []any) any { return rows }, nil
	}
	firstEvent := func(spec Spec) telemetry.DecisionEvent {
		t.Helper()
		var job Job
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", spec, &job); code != http.StatusAccepted {
			t.Fatalf("submit %+v: %d", spec, code)
		}
		if final := waitDone(t, pool, job.ID); final.State != StateDone {
			t.Fatalf("job finished %s: %s", final.State, final.Error)
		}
		ev, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(ev.Body)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Fatal("empty decision trace")
		}
		var first telemetry.DecisionEvent
		if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
			t.Fatalf("first event not JSON: %v (%q)", err, lines[0])
		}
		return first
	}

	warm := firstEvent(Spec{Experiment: "suite", Quick: true, WarmStart: "warm1"})
	if warm.Kind != telemetry.EventWarmStart {
		t.Errorf("first epoch of warm-started job is %q, want %q", warm.Kind, telemetry.EventWarmStart)
	}
	cold := firstEvent(Spec{Experiment: "suite", Quick: true})
	if cold.Kind != telemetry.EventDecision {
		t.Errorf("first epoch of cold job is %q, want %q", cold.Kind, telemetry.EventDecision)
	}
	if warm.Alpha >= cold.Alpha {
		t.Errorf("warm start did not adopt the exploitation learning rate: warm %g vs cold %g", warm.Alpha, cold.Alpha)
	}

	// Deleting the checkpoint makes warm_start submissions fail fast.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/checkpoints/warm1", nil, nil); code != http.StatusOK {
		t.Fatalf("checkpoint delete: %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/checkpoints/warm1", nil, nil); code != http.StatusNotFound {
		t.Errorf("deleted checkpoint still readable: %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "suite", Quick: true, WarmStart: "warm1"}, nil); code != http.StatusBadRequest {
		t.Errorf("warm_start with deleted checkpoint: %d, want 400", code)
	}
}

// TestWarmStartWithoutDataDir verifies both rejection layers when no
// checkpoint store is attached: pool submissions and the HTTP routes.
func TestWarmStartWithoutDataDir(t *testing.T) {
	ts, pool, _ := startServer(t, 1)
	if _, err := pool.Submit(Spec{Experiment: "suite", Quick: true, WarmStart: "nope"}); err == nil {
		t.Error("warm_start without a checkpoint store should be rejected")
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/checkpoints", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("checkpoint list without data dir: %d, want 503", code)
	}
}
