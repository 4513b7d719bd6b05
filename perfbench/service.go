package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

const (
	serviceClients = 2
	// serviceWorkers is one so that, with two CPUs, the worker, the HTTP
	// handlers, the journal and the runtime are not all competing for them:
	// two workers kept both CPUs busy and made a pass take 20-30% longer or
	// shorter with every burst of load from elsewhere on the host. Each
	// job's batchable cells still coalesce into one lockstep task, and the
	// second client's job queues behind the first's.
	serviceWorkers = 1
	// serviceRounds is how many times a pass submits each document.
	serviceRounds = 2
	// serviceTTL evicts finished jobs, bounding the store's memory over a
	// run; clients read each job well within it.
	serviceTTL = 500 * time.Millisecond
	// serviceTracedPasses is how many passes the traced stack runs.
	serviceTracedPasses = 3
)

var (
	serviceRoster = []string{"linux-ondemand", "ge-qiu", "proposed", "releta", "distilled"}
	serviceApps   = []string{"mpegdec", "tachyon", "facerec", "mpegenc", "sphinx"}
	// serviceCampaignSeeds are the campaign seeds of every document.
	serviceCampaignSeeds = []int64{1, 2}
)

// tournament is one generated experiments.json document with the leaderboard
// CSV the same document yields when run in-process through campaign.Cells.
type tournament struct {
	body, wantCSV []byte
}

type serviceStack struct {
	o      options
	dir    string
	docs   []tournament
	jnl    *durable.Journal
	pool   *service.Pool
	srv    *httptest.Server
	client *http.Client
	// Traced stacks only: the journal and planner wrappers, and the spans
	// the clients recorded.
	tj    *timedJournal
	plans *samples
	jobs  *jobSpans
}

// setupService sets up service-tournament: closed-loop HTTP clients against
// an in-process thermserved stack (service.NewServer over httptest, a
// 1-worker service.NewPool, and a store journaling to an fsync-on-commit
// WAL). Each client submits a small tournament, waits for the SSE done event
// and fetches the leaderboard CSV, in a loop. Cells are short, so HTTP,
// planning, the queue handoff, journal fsync and the leaderboard weigh; the
// learners in the roster raise the policy layer's share, and the pool's
// lockstep batching runs only here.
func setupService(ctx context.Context, o options, traced bool) (*serviceStack, error) {
	docs, err := tournaments(ctx, o.seed)
	if err != nil {
		return nil, err
	}
	if o.reduced {
		docs = docs[:3]
	}
	return startService(o, docs, traced)
}

// tournaments generates the seed's documents: per workload, the roster
// rotated by the workload's index and split into documents of two, two and
// one policies, every document with the same two campaign seeds. The seed
// shuffles the documents. A pass thus runs the same cells in the same
// documents whatever the seed (each (policy, workload) pair under both
// seeds, the pool batching the same ones), submitted in another order.
func tournaments(ctx context.Context, seed int64) ([]tournament, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs []map[string]any
	for k, app := range serviceApps {
		pols := append(append([]string(nil), serviceRoster[k:]...), serviceRoster[:k]...)
		for len(pols) > 0 {
			n := min(2, len(pols))
			specs = append(specs, map[string]any{
				"policies":  pols[:n],
				"workloads": []string{app},
				"seeds":     serviceCampaignSeeds,
			})
			pols = pols[n:]
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	docs := make([]tournament, len(specs))
	for i, spec := range specs {
		spec["name"] = fmt.Sprintf("bench-%d", i)
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		want, err := leaderboardInProcess(ctx, body)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", body, err)
		}
		docs[i] = tournament{body: body, wantCSV: want}
	}
	return docs, nil
}

// leaderboardInProcess runs a tournament document cell by cell through
// campaign.Cells, as `thermsim -campaign` does, and renders its CSV.
func leaderboardInProcess(ctx context.Context, doc []byte) ([]byte, error) {
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = doc
	cells, assemble, err := campaign.Cells(cfg, campaign.Experiment)
	if err != nil {
		return nil, err
	}
	rows := make([]any, len(cells))
	for i, c := range cells {
		if rows[i], err = c.Run(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
	}
	var buf bytes.Buffer
	if err := campaign.WriteCSV(&buf, campaign.Leaderboard(assemble(rows).([]campaign.Row))); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// startService builds the stack over a fresh journal directory and warms it
// up with one job per client. A traced stack wraps the journal and the
// planner in timers and makes the clients record their spans.
func startService(o options, docs []tournament, traced bool) (*serviceStack, error) {
	dir, err := os.MkdirTemp(o.work, "service-")
	if err != nil {
		return nil, err
	}
	jnl, err := durable.OpenJournal(dir, durable.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	store := service.NewStore(serviceTTL)
	pool := service.NewPool(store, serviceWorkers)
	s := &serviceStack{o: o, dir: dir, docs: docs, jnl: jnl, pool: pool}
	if traced {
		s.tj = &timedJournal{j: jnl}
		s.plans = &samples{}
		s.jobs = &jobSpans{}
		store.SetJournal(s.tj)
		pool.SetPlanner(func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
			start := time.Now()
			cells, assemble, err := campaign.Cells(cfg, id)
			s.plans.add(float64(time.Since(start).Nanoseconds()) / 1e6)
			return cells, assemble, err
		})
	} else {
		store.SetJournal(jnl)
	}
	pool.Start()
	s.srv = httptest.NewServer(service.NewServer(store, pool))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	warm := make([]tournament, serviceClients)
	copy(warm, docs)
	if ops := s.clients(context.Background(), warm); ops.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", ops.failed, ops.attempted)
	}
	if traced {
		s.tj.reset()
		s.plans.reset()
		s.jobs.reset()
	}
	return s, nil
}

// pass submits every document serviceRounds times, split across the
// clients.
func (s *serviceStack) pass(ctx context.Context) (passOps, error) {
	var jobs []tournament
	for r := 0; r < serviceRounds; r++ {
		jobs = append(jobs, s.docs...)
	}
	return s.clients(ctx, jobs), nil
}

// clients runs serviceClients closed-loop clients; client c submits jobs
// c, c+serviceClients, ... one after the other.
func (s *serviceStack) clients(ctx context.Context, jobs []tournament) passOps {
	results := make([]passOps, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += serviceClients {
				lat, err := s.job(ctx, jobs[i])
				results[c].attempted++
				if err != nil {
					results[c].failed++
					fmt.Fprintln(errLog, "service-tournament:", err)
					continue
				}
				results[c].latencyMS = append(results[c].latencyMS, lat)
			}
		}(c)
	}
	wg.Wait()
	var ops passOps
	for _, r := range results {
		ops.merge(r)
	}
	return ops
}

// job submits one tournament, waits for its SSE done event and fetches its
// leaderboard CSV, returning the latency in milliseconds. Any error status,
// a job that did not finish cleanly or a CSV that differs from the
// in-process reference is an error.
func (s *serviceStack) job(ctx context.Context, t tournament) (float64, error) {
	start := time.Now()
	body, err := s.do(ctx, http.MethodPost, "/v1/campaigns", t.body, http.StatusAccepted)
	if err != nil {
		return 0, err
	}
	submitted := time.Now()
	var job service.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return 0, fmt.Errorf("decode submit response: %w", err)
	}
	if err := s.awaitDone(ctx, job.ID); err != nil {
		return 0, err
	}
	done := time.Now()
	csv, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/leaderboard?format=csv", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	end := time.Now()
	if !bytes.Equal(csv, t.wantCSV) {
		return 0, fmt.Errorf("%s: leaderboard CSV differs from the in-process reference", job.ID)
	}
	if s.jobs != nil {
		trace, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/trace?format=jsonl", nil, http.StatusOK)
		if err != nil {
			return 0, err
		}
		if err := s.jobs.add(submitted.Sub(start), done.Sub(submitted), end.Sub(done), trace); err != nil {
			return 0, fmt.Errorf("%s: %w", job.ID, err)
		}
	}
	return float64(end.Sub(start).Nanoseconds()) / 1e6, nil
}

// do sends one request and returns the body, requiring the given status.
func (s *serviceStack) do(ctx context.Context, method, path string, body []byte, status int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != status {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// awaitDone follows the job's live SSE stream until its done event and
// checks the final snapshot: state done, no failed cell.
func (s *serviceStack) awaitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.URL+"/v1/jobs/"+id+"/live", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: live stream status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			isDone = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && isDone {
			var job service.Job
			if err := json.Unmarshal([]byte(data), &job); err != nil {
				return fmt.Errorf("%s: decode done event: %w", id, err)
			}
			if job.State != service.StateDone || job.Progress.FailedCells > 0 {
				return fmt.Errorf("%s: finished %s with %d failed cells: %s", id, job.State, job.Progress.FailedCells, job.Error)
			}
			// Drain the rest so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%s: live stream ended without a done event", id)
}

// layers measures the traced stack against this (untraced) one: the traced
// stack runs serviceTracedPasses passes with the journal and planner timed
// and each job's spans fetched, then the simulation layers are traced over
// one run of each learner and baseline of the roster.
func (s *serviceStack) layers(ctx context.Context, passes []passStats) (map[string]float64, passOps, error) {
	out := passLayers(passes)
	var untraced []float64
	for _, p := range passes {
		untraced = append(untraced, p.wallS)
	}
	ts, err := startService(s.o, s.docs, true)
	if err != nil {
		return nil, passOps{}, err
	}
	var (
		ops       passOps
		walls     []float64
		totalWall float64
		cells0    = ts.pool.CellsFailed()
		rej0      = ts.pool.JobsRejected()
	)
	for i := 0; i < serviceTracedPasses; i++ {
		ps, err := timedPass(ctx, ts)
		if err != nil {
			ts.close()
			return nil, passOps{}, err
		}
		walls = append(walls, ps.wallS)
		totalWall += ps.wallS
		ops.merge(ps.ops)
	}
	out["service.cells_failed"] = float64(ts.pool.CellsFailed() - cells0)
	out["service.jobs_rejected"] = float64(ts.pool.JobsRejected() - rej0)
	if err := ts.close(); err != nil {
		return nil, passOps{}, err
	}
	wall := median(walls)
	j := ts.jobs
	out["http.submit_ms_p50"] = quantile(j.submitMS, 0.5)
	out["http.submit_ms_p90"] = quantile(j.submitMS, 0.9)
	out["http.leaderboard_ms_p50"] = quantile(j.leaderboardMS, 0.5)
	out["campaign.plan_ms"] = median(ts.plans.values)
	out["service.queue_wait_ms_p50"] = quantile(j.waitMS, 0.5)
	out["service.queue_wait_ms_p90"] = quantile(j.waitMS, 0.9)
	out["service.cell_exec_ms_p50"] = quantile(j.execMS, 0.5)
	out["service.cell_exec_ms_p90"] = quantile(j.execMS, 0.9)
	out["service.worker_busy_frac"] = j.taskMS / 1e3 / (serviceWorkers * totalWall)
	out["durable.append_ms_p50"] = quantile(ts.tj.appendMS, 0.5)
	out["durable.append_ms_p90"] = quantile(ts.tj.appendMS, 0.9)
	out["durable.records"] = float64(len(ts.tj.appendMS)) / serviceTracedPasses
	out["durable.bytes"] = float64(ts.tj.bytes) / serviceTracedPasses

	var l simLayers
	for i, pol := range serviceRoster {
		if pol == "distilled" {
			// The frozen table reports no decision epochs, which the
			// scheduler replay needs to re-apply its bootstrap stalls.
			continue
		}
		ops.attempted++
		if err := l.trace(quadCoreInput(serviceApps[i], pol, int64(i+1))); err != nil {
			ops.failed++
			fmt.Fprintln(errLog, "service-tournament:", err)
		}
	}
	for k, v := range l.metrics() {
		out[k] = v
	}
	out["trace.overhead_pct"] = 100 * (wall - median(untraced)) / median(untraced)
	out["trace.layer_share_pct"] = 100 * j.coveredMS / j.latencyMS
	return out, ops, nil
}

func (s *serviceStack) close() error {
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.pool.Stop()
	err := s.jnl.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// timedJournal times each journal append and counts the bytes it adds to
// the WAL. The store appends under its own lock, one record at a time.
type timedJournal struct {
	j        *durable.Journal
	mu       sync.Mutex
	appendMS []float64
	bytes    int64
}

func (t *timedJournal) Append(rec durable.Record) error {
	size := t.j.WALSize()
	start := time.Now()
	err := t.j.Append(rec)
	elapsed := time.Since(start)
	grown := t.j.WALSize() - size
	t.mu.Lock()
	t.appendMS = append(t.appendMS, float64(elapsed.Nanoseconds())/1e6)
	t.bytes += grown
	t.mu.Unlock()
	return err
}

func (t *timedJournal) reset() {
	t.mu.Lock()
	t.appendMS, t.bytes = nil, 0
	t.mu.Unlock()
}

// samples is a concurrency-safe list of measurements.
type samples struct {
	mu     sync.Mutex
	values []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.values = append(s.values, v)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.values = nil
	s.mu.Unlock()
}

// jobSpans collects the client-side spans of each job (submit, wait for
// done, leaderboard) and the server-side cell spans read back from the job's
// trace: each cell's queue wait and execution.
type jobSpans struct {
	mu                      sync.Mutex
	submitMS, leaderboardMS []float64
	waitMS, execMS          []float64
	// taskMS is the summed execution time of the pool's tasks. Cells that
	// ran together in one lockstep batch share a task: they began at the
	// same moment, so they carry the same queue wait.
	taskMS float64
	// coveredMS sums, per job, the submit and leaderboard requests plus the
	// window from its first cell's start to its last cell's end; latencyMS
	// sums the jobs' latencies.
	coveredMS, latencyMS float64
}

func (j *jobSpans) add(submit, wait, leaderboard time.Duration, trace []byte) error {
	type cell struct{ startUS, execUS, waitUS int64 }
	cells := map[telemetry.SpanID]*cell{}
	get := func(id telemetry.SpanID) *cell {
		if cells[id] == nil {
			cells[id] = &cell{}
		}
		return cells[id]
	}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("decode trace span: %w", err)
		}
		switch {
		case sp.Kind == telemetry.KindCell:
			c := get(sp.ID)
			c.startUS, c.execUS = sp.StartUS, sp.DurUS
		case sp.Kind == telemetry.KindPhase && sp.Name == "queue-wait":
			get(sp.Parent).waitUS = sp.DurUS
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(cells) == 0 {
		return fmt.Errorf("trace has no cell spans")
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tasks := map[int64]int64{}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range cells {
		j.waitMS = append(j.waitMS, float64(c.waitUS)/1e3)
		j.execMS = append(j.execMS, float64(c.execUS)/1e3)
		tasks[c.waitUS] = max(tasks[c.waitUS], c.execUS)
		first, last = min(first, c.startUS), max(last, c.startUS+c.execUS)
	}
	for _, us := range tasks {
		j.taskMS += float64(us) / 1e3
	}
	j.submitMS = append(j.submitMS, ms(submit))
	j.leaderboardMS = append(j.leaderboardMS, ms(leaderboard))
	j.coveredMS += ms(submit) + float64(last-first)/1e3 + ms(leaderboard)
	j.latencyMS += ms(submit + wait + leaderboard)
	return nil
}

func (j *jobSpans) reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.submitMS, j.leaderboardMS, j.waitMS, j.execMS = nil, nil, nil, nil
	j.taskMS, j.coveredMS, j.latencyMS = 0, 0, 0
}
