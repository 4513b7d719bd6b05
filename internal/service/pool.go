package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// Planner decomposes a campaign into independently runnable cells. The
// default is campaign.Cells (experiments.Cells plus tournament expansion);
// tests swap in synthetic plans to exercise panic recovery and cancellation
// without running the simulator.
type Planner func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error)

// CellRunner executes one planned cell of a job and reports which node ran
// it ("" for the local process). The default runs the cell in-process; a
// cluster coordinator swaps in a runner that leases the cell out to a remote
// worker and blocks until the result streams back (or the lease expires and
// the cell is reassigned). The returned row must be the cell's typed row —
// bit-identical to what cell.Run would produce locally.
type CellRunner func(ctx context.Context, job string, spec Spec, idx int, cell experiments.Cell) (row any, ranBy string, err error)

// Pool executes job cells on a bounded set of workers. Cells from all jobs
// share one queue, so a wide campaign fans out across every worker while
// several narrow ones interleave fairly.
type Pool struct {
	store   *Store
	workers int
	plan    Planner
	// runner executes one cell; defaults to in-process execution. A cluster
	// coordinator replaces it with remote dispatch (SetCellRunner).
	runner CellRunner
	// maxQueuedCells, when positive, is the admission limit: a submission
	// arriving while at least this many cells are queued is rejected with
	// an OverloadedError (the HTTP layer maps it to 429 + Retry-After).
	maxQueuedCells int64

	// tasks is an unbuffered handoff: a cell is either held by its job's
	// feeder or being executed by a worker, never parked in a buffer where
	// shutdown could strand it.
	tasks    chan task
	ctx      context.Context
	cancel   context.CancelFunc
	workerWG sync.WaitGroup
	feederWG sync.WaitGroup

	busy          atomic.Int64
	cellsDone     atomic.Int64
	cellsFailed   atomic.Int64
	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64
	// queued counts cells accepted but not yet picked up by a worker.
	queued atomic.Int64

	// checkpoints, when attached, resolves warm_start submissions to stored
	// Q-table checkpoints.
	checkpoints *durable.CheckpointStore

	// traces, when attached, archives each finished job's span trace so it
	// outlives the job's in-memory eviction.
	traces *durable.TraceStore

	// learning, when attached, archives each finished job's sampled learning
	// curves (JSONL) next to the trace archive.
	learning *durable.LearningStore

	// Flight-recorder configuration (EnableFlightRecorder): anomaly dumps
	// land in flightDir, temperatures above tempCeilingC trip thermal-runaway
	// alerts, and a running job making no progress for stallDeadline trips a
	// stall alert.
	flightDir     string
	tempCeilingC  float64
	stallDeadline time.Duration

	// reg is the pool-owned metrics registry; the HTTP server adds its own
	// request metrics to it and exposes it on /metrics.
	reg      *telemetry.Registry
	cellWait *telemetry.Histogram
	cellRun  *telemetry.Histogram
	log      *slog.Logger
}

// jobRun is the pool-side state shared by one job's cells.
type jobRun struct {
	id       string
	spec     Spec
	ctx      context.Context
	cancel   context.CancelFunc
	assemble experiments.Assemble
	// submittedAt anchors the per-cell queue wait-time measurement.
	submittedAt time.Time
	// tracer collects the job's span hierarchy under jobSpan; events is the
	// job's decision-event recorder (also the stall watchdog's progress
	// signal); flight is the job's anomaly recorder (nil when disabled).
	tracer  *telemetry.Tracer
	jobSpan telemetry.SpanID
	events  *telemetry.Recorder
	flight  *telemetry.FlightRecorder
	// curves collects every learning curve the job's cells sample; the
	// learning endpoint serves it live and archiveLearning persists it.
	curves *rl.CurveSet

	mu        sync.Mutex
	rows      []any
	errs      []error
	remaining int

	startOnce sync.Once
}

// task pairs one cell with its job.
type task struct {
	jr   *jobRun
	idx  int
	cell experiments.Cell
}

// NewPool builds a pool over store with the given worker count;
// workers <= 0 selects runtime.NumCPU(). Call Start before Submit.
func NewPool(store *Store, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		store:   store,
		workers: workers,
		plan:    campaign.Cells,
		tasks:   make(chan task),
		ctx:     ctx,
		cancel:  cancel,
		reg:     telemetry.NewRegistry(),
		log:     telemetry.Component("pool"),
	}
	p.runner = func(ctx context.Context, _ string, _ Spec, _ int, cell experiments.Cell) (any, string, error) {
		row, err := runCell(ctx, cell)
		return row, "", err
	}
	p.registerMetrics()
	return p
}

// SetCellRunner replaces in-process cell execution (e.g. with a cluster
// coordinator's remote dispatch). Set before Start.
func (p *Pool) SetCellRunner(r CellRunner) { p.runner = r }

// SetPlanner replaces the campaign planner (tests use synthetic plans; the
// cluster harness uses it to exercise dispatch without the simulator). Set
// before Start.
func (p *Pool) SetPlanner(pl Planner) { p.plan = pl }

// SetMaxQueuedCells installs the admission limit: submissions arriving while
// at least n cells are queued fail with an OverloadedError. n <= 0 disables
// admission control (the default). Set before serving traffic.
func (p *Pool) SetMaxQueuedCells(n int) { p.maxQueuedCells = int64(n) }

// Registry returns the pool-owned metrics registry (job, cell and worker
// metrics; the HTTP layer adds its request metrics to the same registry).
func (p *Pool) Registry() *telemetry.Registry { return p.reg }

// JobTracer returns the live span tracer of job id (false once the job has
// been evicted). The cluster coordinator uses it to merge span batches that
// arrive detached from any active lease (flushes from drained workers).
func (p *Pool) JobTracer(id string) (*telemetry.Tracer, bool) { return p.store.Tracer(id) }

// Start launches the workers.
func (p *Pool) Start() {
	for i := 0; i < p.workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
}

// Stop cancels every job and blocks until all feeders and workers exit.
// Jobs still in flight finalize as cancelled.
func (p *Pool) Stop() {
	p.cancel()
	p.feederWG.Wait()
	p.workerWG.Wait()
}

// Submit validates spec, plans its cells and enqueues them, returning the
// pending job snapshot immediately. Every job gets a bounded decision-event
// recorder threaded through the simulation config, so the RL controller's
// per-epoch trace is queryable while and after the job runs.
func (p *Pool) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	if err := p.admit(); err != nil {
		return Job{}, err
	}
	cfg := spec.Config()
	if err := p.applyWarmStart(&cfg, spec.Experiment, spec.WarmStart); err != nil {
		return Job{}, err
	}
	rec := telemetry.NewRecorder(0)
	cfg.Run.Recorder = rec
	tracer := telemetry.NewTracer(0)
	flight := p.armFlightRecorder(&cfg, tracer, rec)
	// Arm learning-curve collection before planning, since cells capture the
	// config by value. Tournament cells deposit into cfg.LearningCurves with
	// full cell coordinates; plain experiment cells sample through the run
	// observer, which carries policy and workload names only.
	curves := rl.NewCurveSet()
	cfg.LearningCurves = curves
	cfg.Run.LearningObserver = func(pol, wl string, s *rl.LearningSampler) {
		curves.Add(rl.RunCurve{Policy: pol, Workload: wl, Points: s.Points(), Summary: s.Summary()})
	}
	cells, assemble, err := p.plan(cfg, spec.Experiment)
	if err != nil {
		return Job{}, err
	}
	job := p.store.Create(spec, len(cells))
	p.store.BindRecorder(job.ID, rec)
	p.store.BindTracer(job.ID, tracer)
	p.store.BindLearning(job.ID, curves)
	flight.SetJob(job.ID)
	jctx, jcancel := context.WithCancel(p.ctx)
	p.store.BindCancel(job.ID, jcancel)
	jr := &jobRun{
		id:          job.ID,
		spec:        spec,
		ctx:         jctx,
		cancel:      jcancel,
		assemble:    assemble,
		submittedAt: time.Now(),
		tracer:      tracer,
		events:      rec,
		flight:      flight,
		curves:      curves,
		rows:        make([]any, len(cells)),
		errs:        make([]error, len(cells)),
		remaining:   len(cells),
	}
	jr.jobSpan = tracer.Start(0, telemetry.KindJob, job.ID,
		telemetry.Str("experiment", spec.Experiment),
		telemetry.Num("cells", float64(len(cells))),
		telemetry.Bool("quick", spec.Quick))
	p.watchStall(jr)
	tasks := make([]task, len(cells))
	for i, cell := range cells {
		tasks[i] = task{jr: jr, idx: i, cell: cell}
	}
	p.jobsSubmitted.Add(1)
	p.queued.Add(int64(len(tasks)))
	p.feederWG.Add(1)
	go p.feed(jr, tasks)
	p.log.Info("job submitted", "job", job.ID, "experiment", spec.Experiment, "cells", len(cells), "quick", spec.Quick, "warm_start", spec.WarmStart)
	return job, nil
}

// Wait blocks until job id reaches a terminal state (returning its final
// snapshot) or ctx expires.
func (p *Pool) Wait(ctx context.Context, id string) (Job, error) {
	done := p.store.Done(id)
	if done == nil {
		return Job{}, fmt.Errorf("service: wait on unknown job %s", id)
	}
	select {
	case <-done:
		job, _ := p.store.Get(id)
		return job, nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// feed hands a job's tasks to the workers in order, bailing out (and
// accounting the unfed remainder) as soon as the job is cancelled. A resumed
// job feeds only its not-yet-journaled cells, so tasks may be a sparse
// subset of the original plan.
func (p *Pool) feed(jr *jobRun, tasks []task) {
	defer p.feederWG.Done()
	if len(tasks) == 0 {
		p.finalize(jr)
		return
	}
	for i, t := range tasks {
		select {
		case <-jr.ctx.Done():
			// The unfed remainder never reaches a worker; drain it from the
			// queue-depth gauge as it is accounted.
			for _, rest := range tasks[i:] {
				p.queued.Add(-1)
				p.finishCell(jr, rest.idx, nil, "", jr.ctx.Err(), true)
			}
			return
		case p.tasks <- t:
		}
	}
}

// worker executes handed-off cells until the pool shuts down.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-p.tasks:
			p.runTask(t)
		}
	}
}

// runTask executes one cell with panic recovery and accounts the outcome.
func (p *Pool) runTask(t task) {
	p.queued.Add(-1)
	p.cellWait.Observe(time.Since(t.jr.submittedAt).Seconds())
	t.jr.startOnce.Do(func() {
		// A job racing its own cancellation may no longer start; its cells
		// are then skipped through the context check below.
		_ = p.store.Start(t.jr.id)
	})
	if err := t.jr.ctx.Err(); err != nil {
		p.finishCell(t.jr, t.idx, nil, "", err, true)
		return
	}
	p.busy.Add(1)
	start := time.Now()
	cellSpan := t.jr.tracer.Start(t.jr.jobSpan, telemetry.KindCell, t.cell.Key)
	// The cell's first phase is the queue wait it just finished: submission
	// to pickup, recorded retroactively so the trace timeline starts at
	// submission rather than at first execution.
	t.jr.tracer.Record(cellSpan, telemetry.KindPhase, "queue-wait",
		t.jr.submittedAt.UnixMicro(), start.Sub(t.jr.submittedAt).Microseconds())
	ctx := telemetry.ContextWithSpan(t.jr.ctx, t.jr.tracer, cellSpan)
	var row any
	var ranBy string
	var err error
	// Label the worker goroutine for the duration of the cell, so CPU and
	// goroutine profiles attribute samples to (job, cell).
	pprof.Do(ctx, pprof.Labels("job", t.jr.id, "cell", t.cell.Key), func(ctx context.Context) {
		row, ranBy, err = p.runner(ctx, t.jr.id, t.jr.spec, t.idx, t.cell)
	})
	if err != nil {
		t.jr.tracer.End(cellSpan, telemetry.Str("error", err.Error()))
	} else if ranBy != "" {
		t.jr.tracer.End(cellSpan, telemetry.Str("worker", ranBy))
	} else {
		t.jr.tracer.End(cellSpan)
	}
	p.cellRun.Observe(time.Since(start).Seconds())
	p.busy.Add(-1)
	// An error caused by the job's own cancellation is a skip, not a
	// failure: the job finalizes as cancelled either way.
	skipped := err != nil && t.jr.ctx.Err() != nil
	if err != nil && !skipped {
		p.log.Warn("cell failed", "cell", t.cell.Key, "job", t.jr.id, "err", err)
	}
	p.finishCell(t.jr, t.idx, row, ranBy, err, skipped)
}

// runCell invokes the cell, converting a panic into an error so one bad
// cell cannot kill the worker fleet.
func runCell(ctx context.Context, cell experiments.Cell) (row any, err error) {
	defer func() {
		if r := recover(); r != nil {
			row, err = nil, fmt.Errorf("service: cell %s panicked: %v", cell.Key, r)
		}
	}()
	row, err = cell.Run(ctx)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// finishCell records one cell's outcome and finalizes the job when it was
// the last one outstanding. ranBy attributes the committed outcome to the
// cluster worker that executed it ("" in-process).
func (p *Pool) finishCell(jr *jobRun, idx int, row any, ranBy string, err error, skipped bool) {
	jr.mu.Lock()
	if err == nil && !skipped {
		jr.rows[idx] = row
	} else if err != nil && !skipped {
		jr.errs[idx] = err
	}
	jr.remaining--
	last := jr.remaining == 0
	jr.mu.Unlock()

	if !skipped {
		// Journal the outcome before crediting progress, so every cell a
		// client ever saw counted is recoverable after a crash.
		p.store.CellDone(jr.id, idx, row, err, ranBy)
		if err == nil {
			p.cellsDone.Add(1)
			p.store.AddProgress(jr.id, 1, 0)
		} else {
			p.cellsFailed.Add(1)
			p.store.AddProgress(jr.id, 0, 1)
		}
	}
	if last {
		p.finalize(jr)
	}
}

// finalize assembles the job's rows in cell order and commits the terminal
// state: cancelled if its context was cut, failed if any cell errored, done
// otherwise. Partial rows survive alongside the joined errors.
func (p *Pool) finalize(jr *jobRun) {
	defer jr.cancel()
	rows := jr.assemble(jr.rows)
	err := errors.Join(jr.errs...)
	p.store.Finish(jr.id, rows, err, jr.ctx.Err() != nil)
	job, ok := p.store.Get(jr.id)
	if ok {
		p.log.Info("job finished", "job", jr.id, "state", string(job.State),
			"done", job.Progress.DoneCells, "failed", job.Progress.FailedCells, "wall_s", job.WallClockS)
	}
	jr.tracer.End(jr.jobSpan, telemetry.Str("state", string(job.State)))
	p.archiveTrace(jr)
	p.archiveLearning(jr)
}

// OverloadedError is returned by Submit when the queued-cell depth has
// reached the admission limit. The HTTP layer maps it to 429 with a
// Retry-After hint, so open-loop clients back off instead of deepening the
// queue; everything already accepted keeps running.
type OverloadedError struct {
	// Queued and Limit are the queue depth observed at rejection and the
	// configured admission limit.
	Queued, Limit int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded: %d cells queued (admission limit %d), retry in %s",
		e.Queued, e.Limit, e.RetryAfter)
}

// admit applies queue-depth admission control. The Retry-After hint scales
// with how many queue "turns" of the configured concurrency stand between
// the caller and a free slot, clamped to [1s, 30s].
func (p *Pool) admit() error {
	if p.maxQueuedCells <= 0 {
		return nil
	}
	q := p.queued.Load()
	if q < p.maxQueuedCells {
		return nil
	}
	p.jobsRejected.Add(1)
	retry := time.Duration(1+q/int64(p.workers)) * time.Second
	if retry > 30*time.Second {
		retry = 30 * time.Second
	}
	return &OverloadedError{Queued: int(q), Limit: int(p.maxQueuedCells), RetryAfter: retry}
}

// Workers is the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// BusyWorkers is the number of workers currently executing a cell.
func (p *Pool) BusyWorkers() int64 { return p.busy.Load() }

// CellsCompleted is the lifetime count of successfully executed cells.
func (p *Pool) CellsCompleted() int64 { return p.cellsDone.Load() }

// CellsFailed is the lifetime count of cells that returned an error.
func (p *Pool) CellsFailed() int64 { return p.cellsFailed.Load() }

// JobsSubmitted is the lifetime count of accepted submissions.
func (p *Pool) JobsSubmitted() int64 { return p.jobsSubmitted.Load() }

// JobsRejected is the lifetime count of submissions refused by admission
// control.
func (p *Pool) JobsRejected() int64 { return p.jobsRejected.Load() }

// QueuedCells is the number of cells accepted but not yet picked up.
func (p *Pool) QueuedCells() int64 { return p.queued.Load() }
