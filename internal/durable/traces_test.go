package durable

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func traceSpans(n int) []telemetry.Span {
	spans := make([]telemetry.Span, n)
	for i := range spans {
		spans[i] = telemetry.Span{
			ID: telemetry.SpanID(i + 1), Kind: telemetry.KindRun,
			Name: fmt.Sprintf("run %d", i), StartUS: int64(i * 100), DurUS: 50,
			Attrs: []telemetry.Attr{telemetry.Num("peak_c", 71.5)},
		}
	}
	return spans
}

// epochLog builds a log with one finished run of n records.
func epochLog(n int) *telemetry.EpochLog {
	log := telemetry.NewEpochLog()
	run := log.Begin("proposed", "face_rec")
	for i := 1; i <= n; i++ {
		log.Append(run, telemetry.Epoch{Epoch: i, TimeS: float64(15 * i), Alpha: 0.87, Kind: telemetry.EventDecision})
	}
	log.Finish(run, telemetry.RunSummary{Epochs: n, ConvergeEpoch: -1})
	return log
}

func TestTraceStoreRoundTrip(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := traceSpans(3)
	if err := ts.Save("job-000001", want, epochLog(4)); err != nil {
		t.Fatal(err)
	}
	got, _, err := ts.Load("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d spans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Name != want[i].Name || got[i].StartUS != want[i].StartUS {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, num, ok := got[0].Attr("peak_c"); !ok || num != 71.5 {
		t.Errorf("attr lost in round trip: %v %v", num, ok)
	}
}

func TestTraceStoreMissing(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.Load("job-000042"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("missing trace: %v, want ErrNoTrace", err)
	}
}

func TestTraceStoreDeleteIdempotent(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Save("job-000001", traceSpans(1), epochLog(1)); err != nil {
		t.Fatal(err)
	}
	if err := ts.Delete("job-000001"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Delete("job-000001"); err != nil {
		t.Fatalf("second delete: %v", err)
	}
	if _, _, err := ts.Load("job-000001"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("after delete: %v, want ErrNoTrace", err)
	}
	if entries, _ := os.ReadDir(ts.dir); len(entries) != 0 {
		t.Fatalf("delete left %d files behind", len(entries))
	}
}

func TestTraceStorePrunesOldest(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := ts.Save(fmt.Sprintf("job-%06d", i), traceSpans(1), epochLog(2)); err != nil {
			t.Fatal(err)
		}
	}
	got := ts.List()
	want := []string{"job-000003", "job-000004", "job-000005"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
	if _, _, err := ts.Load("job-000001"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("pruned trace still loadable: %v", err)
	}
}

func TestTraceStoreRejectsBadNames(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"", "../escape", "a/b", ".hidden"} {
		if err := ts.Save(job, traceSpans(1), nil); err == nil {
			t.Errorf("Save(%q) accepted", job)
		}
		if _, _, err := ts.Load(job); !errors.Is(err, ErrNoTrace) {
			t.Errorf("Load(%q): %v, want ErrNoTrace", job, err)
		}
		if err := ts.Delete(job); err != nil {
			t.Errorf("Delete(%q): %v, want nil no-op", job, err)
		}
	}
}

func TestTraceStoreDefaultKeep(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.keep != DefaultTraceKeep {
		t.Fatalf("keep = %d, want %d", ts.keep, DefaultTraceKeep)
	}
}

// The learning archive of a job — its epoch log, which /learning and /events
// render once the job is evicted — is kept by the trace store beside the
// job's trace, under the same name, retention and deletion.

func TestLearningStoreRoundTrip(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Save("job-000001", traceSpans(1), epochLog(4)); err != nil {
		t.Fatal(err)
	}
	_, epochs, err := ts.Load("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs.Runs(), epochLog(4).Runs()) {
		t.Errorf("epoch log changed in round trip:\n%+v\n%+v", epochs.Runs(), epochLog(4).Runs())
	}

	// A job that logged no run archives its trace alone.
	if err := ts.Save("job-000002", traceSpans(1), telemetry.NewEpochLog()); err != nil {
		t.Fatal(err)
	}
	if _, epochs, err := ts.Load("job-000002"); err != nil || epochs != nil {
		t.Errorf("trace-only archive loaded epochs %v, err %v; want nil, nil", epochs, err)
	}
	if _, err := os.Stat(ts.epochsPath("job-000002")); !os.IsNotExist(err) {
		t.Errorf("trace-only archive wrote an epoch log file: %v", err)
	}

	if _, _, err := ts.Load("job-000099"); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("missing job: %v, want ErrNoTrace", err)
	}
	if err := ts.Save("../escape", traceSpans(1), epochLog(1)); err == nil {
		t.Fatal("path-traversal job name accepted")
	}

	if err := ts.Delete("job-000001"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Delete("job-000001"); err != nil {
		t.Fatalf("second delete not idempotent: %v", err)
	}
	if _, err := os.Stat(ts.epochsPath("job-000001")); !os.IsNotExist(err) {
		t.Fatalf("deleted job's epoch log still on disk: %v", err)
	}
}

func TestLearningStorePrunesOldest(t *testing.T) {
	ts, err := OpenTraces(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"job-000001", "job-000002", "job-000003"} {
		if err := ts.Save(job, traceSpans(1), epochLog(2)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"job-000002", "job-000003"}
	if got := ts.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
	for _, job := range want {
		if _, epochs, err := ts.Load(job); err != nil || epochs == nil || epochs.Total() != 2 {
			t.Errorf("kept job %s: epochs %v, err %v; want its 2 records", job, epochs, err)
		}
	}
	if _, err := os.Stat(ts.epochsPath("job-000001")); !os.IsNotExist(err) {
		t.Fatalf("pruned job's epoch log still on disk: %v", err)
	}
	if entries, _ := os.ReadDir(ts.dir); len(entries) != 2*len(want) {
		t.Fatalf("prune left %d files, want a trace and an epoch log for each of %d jobs", len(entries), len(want))
	}
}
