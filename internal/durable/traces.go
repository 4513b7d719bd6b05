package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// ErrNoTrace is returned when a job has no archive.
var ErrNoTrace = errors.New("durable: no archived trace")

// DefaultTraceKeep bounds how many archived traces survive pruning when the
// caller passes a non-positive keep count.
const DefaultTraceKeep = 64

// traceJobRE guards archive file names against path traversal; job IDs are
// "job-%06d" but recovered journals may carry arbitrary strings.
var traceJobRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// TraceStore archives what each finished job observed — its span trace and
// its epoch log — as JSONL files (trace-<job>.jsonl, plus epochs-<job>.jsonl
// when the job logged any run), so every observability route outlives the
// job's in-memory eviction. The store prunes itself to the newest keep
// archives (job IDs sort chronologically), keeping disk usage bounded
// however long the server runs.
type TraceStore struct {
	mu   sync.Mutex
	dir  string
	keep int
}

// OpenTraces opens (creating if needed) a trace archive under dir, retaining
// the newest keep traces (DefaultTraceKeep when keep <= 0).
func OpenTraces(dir string, keep int) (*TraceStore, error) {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open traces: %w", err)
	}
	return &TraceStore{dir: dir, keep: keep}, nil
}

func (ts *TraceStore) path(job string) string {
	return filepath.Join(ts.dir, "trace-"+job+".jsonl")
}

func (ts *TraceStore) epochsPath(job string) string {
	return filepath.Join(ts.dir, "epochs-"+job+".jsonl")
}

// Save archives one job's spans and epoch log (which may be nil) atomically
// (write-temp + rename, epochs first so a present trace file means a
// complete archive) and prunes the oldest archives past the retention bound.
func (ts *TraceStore) Save(job string, spans []telemetry.Span, epochs *telemetry.EpochLog) error {
	if !traceJobRE.MatchString(job) {
		return fmt.Errorf("durable: bad trace job name %q", job)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if runs := epochs.Runs(); len(runs) > 0 {
		if err := writeAtomic(ts.epochsPath(job), func(w io.Writer) error { return telemetry.WriteRuns(w, runs) }); err != nil {
			return fmt.Errorf("durable: save epochs %s: %w", job, err)
		}
	}
	if err := writeAtomic(ts.path(job), func(w io.Writer) error { return telemetry.WriteSpansJSONL(w, spans) }); err != nil {
		return fmt.Errorf("durable: save trace %s: %w", job, err)
	}
	ts.pruneLocked()
	return nil
}

// writeAtomic writes path through a temp file renamed into place.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Load reads back one job's archived spans and epoch log (ErrNoTrace when
// absent; a nil log when the job logged no run).
func (ts *TraceStore) Load(job string) ([]telemetry.Span, *telemetry.EpochLog, error) {
	if !traceJobRE.MatchString(job) {
		return nil, nil, ErrNoTrace
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	f, err := os.Open(ts.path(job))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoTrace
		}
		return nil, nil, fmt.Errorf("durable: load trace %s: %w", job, err)
	}
	defer f.Close()
	spans, err := telemetry.DecodeSpansJSONL(f)
	if err != nil {
		return nil, nil, err
	}
	ef, err := os.Open(ts.epochsPath(job))
	if os.IsNotExist(err) {
		return spans, nil, nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("durable: load epochs %s: %w", job, err)
	}
	defer ef.Close()
	epochs, err := telemetry.DecodeEpochLog(ef)
	if err != nil {
		return nil, nil, err
	}
	return spans, epochs, nil
}

// Delete removes one job's archive (idempotent).
func (ts *TraceStore) Delete(job string) error {
	if !traceJobRE.MatchString(job) {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, path := range []string{ts.path(job), ts.epochsPath(job)} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("durable: delete trace %s: %w", job, err)
		}
	}
	return nil
}

// List returns the jobs with archived traces, oldest first.
func (ts *TraceStore) List() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.listLocked()
}

func (ts *TraceStore) listLocked() []string {
	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return nil
	}
	var jobs []string
	for _, e := range entries {
		name := e.Name()
		job, ok := strings.CutPrefix(name, "trace-")
		if !ok {
			continue
		}
		job, ok = strings.CutSuffix(job, ".jsonl")
		if !ok {
			continue
		}
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	return jobs
}

// pruneLocked drops the oldest archives beyond the retention bound. Job IDs
// are zero-padded sequence numbers, so lexicographic order is age order.
func (ts *TraceStore) pruneLocked() {
	jobs := ts.listLocked()
	for len(jobs) > ts.keep {
		os.Remove(ts.path(jobs[0]))
		os.Remove(ts.epochsPath(jobs[0]))
		jobs = jobs[1:]
	}
}
