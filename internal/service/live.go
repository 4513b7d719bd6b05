package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// defaultLivePoll is how often the live stream drains new epoch records;
// tests shorten it to keep streaming assertions fast.
const defaultLivePoll = 250 * time.Millisecond

// handleLive streams the job's decision epochs over Server-Sent Events: one
// "epoch" event per record of its epoch log, in append order (data = the
// telemetry.Epoch JSON), then one "done" event carrying the final job
// snapshot when the job reaches a terminal state. Disconnecting clients cost
// nothing beyond their own request goroutine, which exits on the next poll.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, epochs, ok := s.store.Observers(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if epochs == nil {
		writeError(w, http.StatusNotFound, "job %s has no live epoch log", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	done := s.store.Done(id)

	s.liveStreams.Add(1)
	defer s.liveStreams.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var cursor int64
	// drain forwards the records appended since the last poll; a write error
	// means the client went away.
	drain := func() bool {
		evs, cur := epochs.Since(cursor)
		cursor = cur
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: epoch\ndata: %s\n\n", b); err != nil {
				return false
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		return true
	}
	tick := time.NewTicker(s.livePoll)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			drain()
			if job, ok := s.store.Get(id); ok {
				if b, err := json.Marshal(job); err == nil {
					fmt.Fprintf(w, "event: done\ndata: %s\n\n", b) //nolint:errcheck // client gone; nothing left to do
				}
			}
			fl.Flush()
			return
		case <-tick.C:
			if !drain() {
				return
			}
		}
	}
}

// handleTrace exports the job's span trace: ?format=chrome (default) renders
// the Chrome trace-event JSON that Perfetto and chrome://tracing load
// directly, ?format=jsonl the archival one-span-per-line form. A running
// job's trace snapshots its progress so far (open spans marked); an evicted
// job's trace is served from the durable archive when one is attached
// (observations).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	if format != "chrome" && format != "jsonl" {
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want chrome or jsonl)", format)
		return
	}
	obs, ok := s.observations(w, id)
	if !ok {
		return
	}
	spans := obs.spans
	if obs.tracer != nil {
		spans = obs.tracer.Snapshot()
	}
	switch format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-trace.json", id))
		_ = telemetry.WriteChromeTrace(w, spans) //nolint:errcheck // client gone; nothing left to do
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = telemetry.WriteSpansJSONL(w, spans) //nolint:errcheck // client gone; nothing left to do
	}
}

// jobObservations is what a job observed: the live job's tracer and epoch
// log or, once the job is evicted (or restored after a restart), its
// archived spans and epoch log (nil when it logged no run).
type jobObservations struct {
	tracer *telemetry.Tracer
	spans  []telemetry.Span
	epochs *telemetry.EpochLog
}

// observations resolves job id's observations for the trace, events and
// learning routes, answering 404 (or 500 for an unreadable archive) itself
// when there are none.
func (s *Server) observations(w http.ResponseWriter, id string) (jobObservations, bool) {
	if tracer, epochs, ok := s.store.Observers(id); ok && tracer != nil {
		return jobObservations{tracer: tracer, epochs: epochs}, true
	}
	ts := s.pool.TraceStore()
	if ts == nil {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return jobObservations{}, false
	}
	spans, epochs, err := ts.Load(id)
	if errors.Is(err, durable.ErrNoTrace) {
		writeError(w, http.StatusNotFound, "no trace for job %s", id)
		return jobObservations{}, false
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load trace: %v", err)
		return jobObservations{}, false
	}
	return jobObservations{spans: spans, epochs: epochs}, true
}
