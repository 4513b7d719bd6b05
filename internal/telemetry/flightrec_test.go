package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderTripDumpsContext(t *testing.T) {
	dir := t.TempDir()
	tr := newTestTracer(0)
	run := tr.Start(0, KindRun, "proposed/tachyon")
	tr.Record(run, KindEpoch, "epoch 1", tr.Now(), 10, Num("state", 2))
	epochs := NewEpochLog()
	epochs.Append(epochs.Begin("proposed", "tachyon"), Epoch{Epoch: 1, TimeS: 10, State: 2, Action: 1, Kind: EventDecision})
	reg := NewRegistry()

	fr := NewFlightRecorder(dir, tr, epochs, reg)
	fr.SetJob("job-000042")
	fr.Trip(Anomaly{
		Kind: AnomalyThermalRunaway, Cell: "suite/tachyon/proposed",
		Detail: "core 3 at 131.2 C over ceiling 120.0 C", TimeS: 42.5, TempC: 131.2, Core: 3,
	})

	if fr.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", fr.Trips())
	}
	path := filepath.Join(dir, "flightrec-job-000042.json")
	if fr.Path() != path {
		t.Fatalf("path = %q, want %q", fr.Path(), path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	var dump struct {
		Job       string    `json:"job"`
		Anomalies []Anomaly `json:"anomalies"`
		Spans     []Span    `json:"spans"`
		Events    []Epoch   `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Job != "job-000042" {
		t.Errorf("dump job = %q", dump.Job)
	}
	if len(dump.Anomalies) != 1 || dump.Anomalies[0].Kind != AnomalyThermalRunaway {
		t.Fatalf("anomalies = %+v", dump.Anomalies)
	}
	if dump.Anomalies[0].Job != "job-000042" {
		t.Error("anomaly did not inherit the recorder's job")
	}
	if dump.Anomalies[0].TempC != 131.2 || dump.Anomalies[0].Core != 3 {
		t.Errorf("thermal details lost: %+v", dump.Anomalies[0])
	}
	if len(dump.Spans) == 0 {
		t.Error("dump carries no span context")
	}
	if len(dump.Events) != 1 || dump.Events[0].State != 2 {
		t.Errorf("dump events = %+v", dump.Events)
	}
	if got, _ := reg.Value("flightrec_alerts_total", L("kind", AnomalyThermalRunaway)); got != 1 {
		t.Errorf("flightrec_alerts_total{kind=thermal_runaway} = %g, want 1", got)
	}
}

func TestFlightRecorderAccumulatesAnomalies(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	fr := NewFlightRecorder(dir, nil, nil, reg)
	fr.SetJob("j1")
	fr.Trip(Anomaly{Kind: AnomalyNumeric, Detail: "NaN temperature on core 0", TimeS: 5})
	fr.Trip(Anomaly{Kind: AnomalyStall, Detail: "no progress for 30s"})

	data, err := os.ReadFile(fr.Path())
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Anomalies) != 2 {
		t.Fatalf("anomalies = %d, want 2 (accumulated)", len(dump.Anomalies))
	}
	if dump.Anomalies[0].Kind != AnomalyNumeric || dump.Anomalies[1].Kind != AnomalyStall {
		t.Errorf("kinds = %q, %q", dump.Anomalies[0].Kind, dump.Anomalies[1].Kind)
	}
	if got, _ := reg.Value("flightrec_alerts_total", L("kind", AnomalyStall)); got != 1 {
		t.Errorf("stall alert counter = %g", got)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.SetJob("x")
	fr.Trip(Anomaly{Kind: AnomalyNumeric})
	if fr.Trips() != 0 || fr.Path() != "" {
		t.Error("nil flight recorder must be inert")
	}
}

func TestFlightRecorderNoJobNoFile(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir, nil, nil, NewRegistry())
	fr.Trip(Anomaly{Kind: AnomalyNumeric, Detail: "pre-job"})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("no file expected before SetJob, found %v", entries)
	}
	// The trip is still counted, and a later SetJob+Trip flushes everything.
	if fr.Trips() != 1 {
		t.Errorf("trips = %d", fr.Trips())
	}
	fr.SetJob("late")
	fr.Trip(Anomaly{Kind: AnomalyStall, Detail: "late"})
	data, err := os.ReadFile(filepath.Join(dir, "flightrec-late.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Anomalies) != 2 {
		t.Errorf("pre-job anomaly lost: %+v", dump.Anomalies)
	}
}

// TestConcurrentExposition hammers a registry from many goroutines while
// scraping it — the satellite race test for Prometheus exposition.
func TestConcurrentExposition(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total", "h", L("worker", fmt.Sprint(w)))
			g := reg.Gauge("hammer_gauge", "h")
			h := reg.Histogram("hammer_seconds", "h", []float64{0.1, 1, 10})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 13))
				// New series appear mid-scrape too.
				reg.Counter("hammer_total", "h", L("worker", fmt.Sprint(w)), L("i", fmt.Sprint(i%5))).Inc()
			}
		}(w)
	}
	handler := Handler(reg)
	for i := 0; i < 50; i++ {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
		if rw.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rw.Code)
		}
	}
	close(stop)
	wg.Wait()
	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rw.Body.String(), "hammer_total") {
		t.Error("final scrape missing hammered series")
	}
}
