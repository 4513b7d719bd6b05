package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The epoch log is the decision recorder behind /events and /live: the
// TestRecorder tests check what those routes read from it.

// TestRecorderBelowCapacity: the log keeps every appended record, across
// runs, in append order.
func TestRecorderBelowCapacity(t *testing.T) {
	log := NewEpochLog()
	a, b := log.Begin("proposed", "tachyon"), log.Begin("releta", "tachyon")
	log.Append(a, Epoch{Epoch: 1})
	log.Append(b, Epoch{Epoch: 1, State: 9})
	log.Append(a, Epoch{Epoch: 2})
	evs, cur := log.Since(0)
	if len(evs) != 3 || evs[0].Epoch != 1 || evs[1].State != 9 || evs[2].Epoch != 2 || cur != 3 {
		t.Fatalf("records are not kept in append order: %+v, cursor %d", evs, cur)
	}
	if log.Total() != 3 {
		t.Errorf("total = %d, want 3", log.Total())
	}
}

func TestRecorderSinceCursor(t *testing.T) {
	log := NewEpochLog()
	evs, cur := log.Since(0)
	if len(evs) != 0 || cur != 0 {
		t.Fatalf("empty log: %v, %d", evs, cur)
	}
	run := log.Begin("proposed", "tachyon")
	log.Append(run, Epoch{Epoch: 1})
	log.Append(run, Epoch{Epoch: 2})
	evs, cur = log.Since(cur)
	if len(evs) != 2 || cur != 2 {
		t.Fatalf("first drain: %+v, cursor %d", evs, cur)
	}
	// No new records: cursor unchanged, nothing returned.
	evs, cur2 := log.Since(cur)
	if len(evs) != 0 || cur2 != cur {
		t.Fatalf("idle drain: %+v, %d", evs, cur2)
	}
	// A lagging client gets everything it missed: the log drops nothing.
	for i := 3; i <= 10; i++ {
		log.Append(run, Epoch{Epoch: i})
	}
	evs, cur = log.Since(cur)
	if len(evs) != 8 || evs[0].Epoch != 3 || evs[7].Epoch != 10 || cur != 10 {
		t.Fatalf("lagged drain: %d records ending at cursor %d", len(evs), cur)
	}
	if evs, _ := log.Since(-5); len(evs) != 10 {
		t.Errorf("negative cursor drained %d records, want all 10", len(evs))
	}
}

func TestRecorderJSONL(t *testing.T) {
	log := NewEpochLog()
	b := log.Begin("releta", "mpeg_dec")
	a := log.Begin("proposed", "mpeg_dec")
	// A NaN reward (first epoch has no previous action) must not break the
	// JSON encoding.
	log.Append(b, Epoch{Epoch: 1, Reward: math.NaN(), Kind: EventDecision, Workload: "mpeg_dec"})
	log.Append(a, Epoch{Epoch: 1, Reward: math.NaN(), Kind: EventDecision})
	log.Append(a, Epoch{Epoch: 2, Reward: 0.5, Kind: EventQReset, SwitchDetected: true, AbsTD: 0.25, SamplingS: 3})
	var buf bytes.Buffer
	if err := log.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []Epoch
	for sc.Scan() {
		var ev Epoch
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// Grouped by run, runs sorted by policy: proposed's two epochs first.
	if lines[0].Epoch != 1 || lines[1].Epoch != 2 || lines[2].Workload != "mpeg_dec" {
		t.Errorf("lines not grouped by run in policy order: %+v", lines)
	}
	if lines[0].Reward != 0 || lines[2].Reward != 0 {
		t.Errorf("NaN rewards should serialize as 0, got %g and %g", lines[0].Reward, lines[2].Reward)
	}
	if lines[1].Kind != EventQReset || !lines[1].SwitchDetected || lines[1].AbsTD != 0.25 || lines[1].SamplingS != 3 {
		t.Errorf("second line = %+v", lines[1])
	}
}

func TestRecorderPhaseExploredSerialized(t *testing.T) {
	log := NewEpochLog()
	log.Append(log.Begin("proposed", "mpeg_dec"), Epoch{Epoch: 1, Kind: EventDecision, Phase: "exploration", Explored: true, Reward: math.NaN()})
	var buf bytes.Buffer
	if err := log.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.Contains(raw, `"phase":"exploration"`) || !strings.Contains(raw, `"explored":true`) {
		t.Errorf("phase/explored missing from JSONL: %s", raw)
	}
	var ev Epoch
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Phase != "exploration" || !ev.Explored {
		t.Errorf("decoded %+v, want phase exploration and explored", ev)
	}
}

// TestEpochLogConcurrent exercises parallel runs appending against readers,
// as a job's cells log while the HTTP routes render. Run under -race.
func TestEpochLogConcurrent(t *testing.T) {
	log := NewEpochLog()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := log.Begin("proposed", "tachyon")
			for i := 0; i < 500; i++ {
				log.Append(run, Epoch{Epoch: i + 1})
			}
			log.Finish(run, RunSummary{Epochs: 500})
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cur int64
		for i := 0; i < 20; i++ {
			_, cur = log.Since(cur)
			if err := log.WriteEvents(&bytes.Buffer{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if log.Total() != 2000 || len(log.Finished()) != 4 {
		t.Errorf("total = %d over %d finished runs, want 2000 over 4", log.Total(), len(log.Finished()))
	}
}

// TestEpochLogRunsJSONLRoundTrip: the archive form reproduces the log
// exactly (shortest-form float64 JSON round-trips), finished or not, in
// coordinate order.
func TestEpochLogRunsJSONLRoundTrip(t *testing.T) {
	log := NewEpochLog()
	r := log.Begin("releta", "mpegdec")
	log.Append(r, Epoch{Epoch: 1, TimeS: 0.5, Reward: 1.0 / 3.0, AbsTD: 0.125, Alpha: 0.87})
	log.Finish(r, RunSummary{Epochs: 1, ConvergeEpoch: -1})
	p := log.For("proposed", "mpegdec", 1, 2).Begin("proposed", "mpeg_dec")
	log.Append(p, Epoch{Epoch: 1})
	log.Append(p, Epoch{Epoch: 2, Damage: 0.25})
	log.Finish(p, RunSummary{Epochs: 2, ConvergeEpoch: 1, CoreDamage: []float64{0.25}, CoreDamageShare: []float64{1}})
	log.Append(log.Begin("proposed", "tachyon"), Epoch{Epoch: 1, Stress: 2.5}) // a run that never finished

	var buf bytes.Buffer
	if err := WriteRuns(&buf, log.Runs()); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEpochLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := log.Runs()
	if !reflect.DeepEqual(got.Runs(), want) {
		t.Fatalf("round trip changed the log:\n%+v\n%+v", got.Runs(), want)
	}
	if want[0].Policy != "proposed" || want[0].Workload != "mpegdec" || want[0].Seed != 1 || want[0].Repeat != 2 {
		t.Fatalf("runs not sorted by coordinates, or For ignored: first is %+v", want[0])
	}
	if got.Total() != 4 || len(got.Finished()) != 2 {
		t.Fatalf("decoded %d records, %d finished runs; want 4 and 2", got.Total(), len(got.Finished()))
	}
	if _, err := DecodeEpochLog(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("corrupt archive accepted")
	}
}

// TestEpochLogCSV: the -learning-csv surface is deterministic (byte-equal on
// re-render) and flattens every finished run's records under its
// coordinates.
func TestEpochLogCSV(t *testing.T) {
	log := NewEpochLog().For("proposed", "mpegdec", 7, 1)
	run := log.Begin("proposed", "mpeg_dec")
	log.Append(run, Epoch{Epoch: 1, TimeS: 1, Reward: 0.5})
	log.Append(run, Epoch{Epoch: 2, TimeS: 2, AbsTD: 0.25})
	log.Finish(run, RunSummary{Epochs: 2})
	log.Append(log.Begin("proposed", "mpeg_dec"), Epoch{Epoch: 1}) // unfinished: no curve
	var a, b bytes.Buffer
	if err := log.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV rendering is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 points:\n%s", len(lines), a.String())
	}
	if lines[0] != "policy,workload,seed,repeat,epoch,time_s,reward,abs_td,alpha,coverage,stability,damage" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if lines[1] != "proposed,mpegdec,7,1,1,1,0.5,0,0,0,0,0" {
		t.Fatalf("unexpected first row %q", lines[1])
	}
}

// TestEpochLogOrderIndependentOfAppends: plain experiment runs tie on every
// coordinate (same policy and workload, no seed or repeat), so the log must
// fall back to content for the order. Logging the same runs in any order
// renders byte-identical events, CSV and JSONL.
func TestEpochLogOrderIndependentOfAppends(t *testing.T) {
	var runs []EpochRun
	for i := 0; i < 6; i++ {
		runs = append(runs, EpochRun{Policy: "proposed", Workload: "tachyon",
			Points:  []Epoch{{Epoch: 1, Reward: float64(i % 3), Alpha: 0.5 + float64(i)/10}},
			Summary: &RunSummary{Epochs: 1, ConvergeEpoch: -1}})
	}
	runs = append(runs, runs[2]) // an exact duplicate ties on content too
	render := func(order []int) []byte {
		log := NewEpochLog()
		for _, i := range order {
			r := log.Begin(runs[i].Policy, runs[i].Workload)
			for _, e := range runs[i].Points {
				log.Append(r, e)
			}
			log.Finish(r, *runs[i].Summary)
		}
		var buf bytes.Buffer
		if err := log.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		if err := log.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := WriteRuns(&buf, log.Runs()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(1))
	want := render(rng.Perm(len(runs)))
	for trial := 0; trial < 20; trial++ {
		if got := render(rng.Perm(len(runs))); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: output depends on append order:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// TestEpochSpanAttrs: the epoch span carries the record's decision fields,
// with the first epoch's missing reward rendered as NaN.
func TestEpochSpanAttrs(t *testing.T) {
	e := Epoch{Epoch: 1, Workload: "tachyon", Reward: math.NaN(), Kind: EventWarmStart, Explored: true, Alpha: 0.87}
	sp := Span{Attrs: e.SpanAttrs()}
	for key, want := range map[string]string{"reward": "NaN", "event": EventWarmStart, "explored": "true", "switch_detected": "false", "workload": "tachyon"} {
		if got, _, ok := sp.Attr(key); !ok || got != want {
			t.Errorf("%s = %q, want %q", key, got, want)
		}
	}
	for key, want := range map[string]float64{"epoch": 1, "alpha": 0.87, "state": 0} {
		if _, got, ok := sp.Attr(key); !ok || got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
}
