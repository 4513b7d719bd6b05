package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// learningResponse mirrors the handleLearning JSON envelope.
type learningResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Runs  []struct {
		Policy   string               `json:"policy"`
		Workload string               `json:"workload"`
		Summary  telemetry.RunSummary `json:"summary"`
	} `json:"runs"`
}

// TestLearningEndpoint drives the ISSUE's acceptance criterion over real
// HTTP: a fig45 job serves non-empty learning curves and the proposed
// policy's run reports a convergence epoch.
func TestLearningEndpoint(t *testing.T) {
	ts, _, _ := startServer(t, 2)

	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "fig45", Quick: true}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var probe Job
	for probe.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", probe.State)
		}
		time.Sleep(20 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &probe)
		if probe.State.Terminal() && probe.State != StateDone {
			t.Fatalf("job finished %s: %s", probe.State, probe.Error)
		}
	}

	var lr learningResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/learning", nil, &lr); code != http.StatusOK {
		t.Fatalf("learning: status %d", code)
	}
	if lr.ID != job.ID || len(lr.Runs) == 0 {
		t.Fatalf("learning payload off: %+v", lr)
	}
	found := false
	for _, run := range lr.Runs {
		if run.Policy != "proposed" {
			continue
		}
		found = true
		if run.Summary.Epochs == 0 {
			t.Errorf("proposed run sampled no epochs: %+v", run)
		}
		if run.Summary.ConvergeEpoch < 1 {
			t.Errorf("proposed run did not converge on fig45: epoch %d", run.Summary.ConvergeEpoch)
		}
		if len(run.Summary.CoreDamageShare) == 0 {
			t.Errorf("proposed run carries no per-core damage attribution: %+v", run)
		}
	}
	if !found {
		t.Fatalf("no proposed run in %+v", lr.Runs)
	}

	// JSONL streams one decodable telemetry.EpochRun per line with per-epoch
	// points.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/learning?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("jsonl content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rc telemetry.EpochRun
		if err := json.Unmarshal(sc.Bytes(), &rc); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(rc.Points) == 0 {
			t.Errorf("line %d (%s/%s) has no curve points", lines, rc.Policy, rc.Workload)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(lr.Runs) {
		t.Errorf("jsonl lines %d != %d summarized runs", lines, len(lr.Runs))
	}

	// Error surface: bad format is a 400, unknown jobs are a 404 (no durable
	// store is configured, so there is no archive to fall back to).
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/learning?format=yaml", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope/learning", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}
