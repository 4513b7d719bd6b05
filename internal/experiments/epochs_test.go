package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// legacyKeys are the per-epoch keys of the separate streams the epoch record
// replaced: the /events decision event, the learning-curve point, and the
// epoch span's attributes.
var legacyKeys = map[string][]string{
	"event": {"epoch", "time_s", "workload", "state", "action", "reward", "alpha", "phase", "explored", "kind", "switch_detected"},
	"point": {"epoch", "time_s", "reward", "abs_td", "alpha", "coverage", "stability", "damage"},
}

// project keeps the given keys of a decoded JSON object.
func project(obj map[string]any, keys []string) map[string]any {
	out := map[string]any{}
	for _, k := range keys {
		if v, ok := obj[k]; ok {
			out[k] = v
		}
	}
	return out
}

// jsonLines decodes one JSON object per line.
func jsonLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		out = append(out, obj)
	}
	return out
}

// TestEpochRecordsRenderLegacyFormats runs quick fig45 with an epoch log and
// a tracer and derives, from its records alone, each format the separate
// per-epoch streams used to write: decision-event JSONL, learning-curve
// JSONL with its run summary, epoch-span attributes and curve CSV. Every old
// key must keep its old value; testdata/legacy_fig45 holds those streams as
// written for the same run before they were merged into one record.
func TestEpochRecordsRenderLegacyFormats(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("legacy renderings are recorded on amd64, not %s", runtime.GOARCH)
	}
	cfg := quickCfg()
	cfg.Run.Epochs = telemetry.NewEpochLog()
	tracer := telemetry.NewTracer(0)
	cfg.Run.Tracer = tracer
	if _, err := RunRows(cfg, "fig45"); err != nil {
		t.Fatal(err)
	}
	legacy := func(name string) []byte {
		b, err := os.ReadFile("testdata/legacy_fig45/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Decision events: one line per epoch, old keys only.
	var events bytes.Buffer
	if err := cfg.Run.Epochs.WriteEvents(&events); err != nil {
		t.Fatal(err)
	}
	got, want := jsonLines(t, events.Bytes()), jsonLines(t, legacy("events.jsonl"))
	if len(got) != len(want) {
		t.Fatalf("%d event lines, legacy %d", len(got), len(want))
	}
	for i := range want {
		if p := project(got[i], legacyKeys["event"]); !reflect.DeepEqual(p, want[i]) {
			t.Fatalf("event line %d:\n%v\nlegacy\n%v", i, p, want[i])
		}
	}

	// Learning-curve JSONL: run coordinates and summary unchanged, points
	// carry every old key.
	var runs bytes.Buffer
	if err := telemetry.WriteRuns(&runs, cfg.Run.Epochs.Finished()); err != nil {
		t.Fatal(err)
	}
	got, want = jsonLines(t, runs.Bytes()), jsonLines(t, legacy("curves.jsonl"))
	if len(got) != len(want) {
		t.Fatalf("%d curve runs, legacy %d", len(got), len(want))
	}
	for i := range want {
		gotPts, wantPts := got[i]["points"].([]any), want[i]["points"].([]any)
		if len(gotPts) != len(wantPts) {
			t.Fatalf("run %d: %d points, legacy %d", i, len(gotPts), len(wantPts))
		}
		for j := range wantPts {
			if p := project(gotPts[j].(map[string]any), legacyKeys["point"]); !reflect.DeepEqual(p, wantPts[j]) {
				t.Fatalf("run %d point %d:\n%v\nlegacy\n%v", i, j, p, wantPts[j])
			}
		}
		delete(got[i], "points")
		delete(want[i], "points")
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("run %d coordinates or summary:\n%v\nlegacy\n%v", i, got[i], want[i])
		}
	}

	// Curve CSV: byte-identical.
	var csv bytes.Buffer
	if err := cfg.Run.Epochs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), legacy("curves.csv")) {
		t.Fatalf("curve CSV differs from legacy:\n%s", csv.Bytes())
	}

	// Epoch spans: the same spans, attribute for attribute.
	type spanAttrs struct {
		Name  string           `json:"name"`
		Attrs []telemetry.Attr `json:"attrs"`
	}
	var wantSpans []spanAttrs
	for _, line := range strings.Split(strings.TrimSpace(string(legacy("epoch_spans.jsonl"))), "\n") {
		var s spanAttrs
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		wantSpans = append(wantSpans, s)
	}
	var gotSpans []telemetry.Span
	for _, sp := range tracer.Snapshot() {
		if sp.Kind == telemetry.KindEpoch {
			gotSpans = append(gotSpans, sp)
		}
	}
	if len(gotSpans) != len(wantSpans) {
		t.Fatalf("%d epoch spans, legacy %d", len(gotSpans), len(wantSpans))
	}
	for i, w := range wantSpans {
		g := gotSpans[i]
		if g.Name != w.Name || !reflect.DeepEqual(g.Attrs, w.Attrs) {
			t.Fatalf("epoch span %d:\n%s %v\nlegacy\n%s %v", i, g.Name, g.Attrs, w.Name, w.Attrs)
		}
	}
}
