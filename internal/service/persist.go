package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// SetCheckpoints attaches the Q-table checkpoint store used to resolve
// warm_start submissions. Attach before serving traffic.
func (p *Pool) SetCheckpoints(cs *durable.CheckpointStore) { p.checkpoints = cs }

// Checkpoints returns the attached checkpoint store (nil without a data
// directory); the HTTP layer serves /v1/checkpoints from it.
func (p *Pool) Checkpoints() *durable.CheckpointStore { return p.checkpoints }

// applyWarmStart resolves a warm_start checkpoint name into the config's
// warm-start state. An empty name is a no-op; a named checkpoint requires an
// attached store and a payload that decodes as a known checkpoint kind. The
// routing itself — proposed-kind tables onto cfg.WarmStart with dimension
// validation, other kinds as raw bytes for a tournament's policies — is
// campaign.ApplyWarmPayload, shared with the cluster worker.
func (p *Pool) applyWarmStart(cfg *experiments.Config, experiment, name string) error {
	if name == "" {
		return nil
	}
	if p.checkpoints == nil {
		return fmt.Errorf("service: warm_start %q: server is running without a data directory", name)
	}
	payload, _, err := p.checkpoints.Get(name)
	if err != nil {
		return fmt.Errorf("service: warm_start: %w", err)
	}
	if err := campaign.ApplyWarmPayload(cfg, experiment, payload); err != nil {
		return fmt.Errorf("service: warm_start %q: %w", name, err)
	}
	return nil
}

// Recover replays a journal's recovered state into the store and pool:
// terminal jobs become queryable snapshots with their rows reassembled from
// the journaled cells, interrupted jobs are re-enqueued with only their
// not-yet-committed cells, and interrupted jobs whose cancellation was
// requested before the crash finalize as cancelled. Call it once, after
// SetJournal/SetCheckpoints and before serving traffic. It returns how many
// jobs were restored as terminal snapshots and how many were resumed.
func (p *Pool) Recover(st *durable.State) (restored, resumed int) {
	ids := make([]string, 0, len(st.Jobs))
	for id := range st.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		js := st.Jobs[id]
		if p.recoverJob(js) {
			restored++
		} else {
			resumed++
		}
	}
	if restored+resumed > 0 {
		p.log.Info("journal recovery complete", "restored", restored, "resumed", resumed)
	}
	return restored, resumed
}

// recoverJob rebuilds one journaled job, reporting true when it was restored
// in place (terminal) and false when it was re-enqueued.
func (p *Pool) recoverJob(js *durable.JobState) bool {
	var spec Spec
	if err := json.Unmarshal(js.Spec, &spec); err != nil {
		p.restoreBroken(js, fmt.Errorf("service: recover %s: bad journaled spec: %w", js.ID, err))
		return true
	}
	job := Job{
		ID:          js.ID,
		Spec:        spec,
		State:       StatePending,
		Progress:    Progress{TotalCells: js.TotalCells},
		SubmittedAt: js.SubmittedAt,
	}
	rows, errs := p.decodeCells(spec, js)
	for idx := range js.Cells {
		if idx < 0 || idx >= js.TotalCells {
			continue
		}
		if errs[idx] != nil {
			job.Progress.FailedCells++
		} else if rows[idx] != nil {
			job.Progress.DoneCells++
		}
	}

	if js.Terminal() {
		job.State = State(js.State)
		job.Error = js.Error
		job.StartedAt = js.StartedAt
		job.FinishedAt = js.FinishedAt
		job.WallClockS = js.WallClockS
		p.store.Restore(job, p.assembleRecovered(spec, rows))
		return true
	}

	// Interrupted mid-run: reinstall as pending, then either honor the
	// journaled cancellation request or re-enqueue the unfinished cells.
	p.store.Restore(job, nil)
	if js.CancelRequested {
		p.log.Info("recovered job had cancellation pending", "job", js.ID)
		_, _ = p.store.Cancel(js.ID)
		return true
	}
	p.resume(job, rows, errs)
	return false
}

// restoreBroken installs an unrecoverable journal entry as a failed snapshot
// so the operator can still see (and DELETE) it.
func (p *Pool) restoreBroken(js *durable.JobState, err error) {
	p.log.Error("journaled job unrecoverable", "job", js.ID, "err", err)
	now := time.Now()
	p.store.Restore(Job{
		ID:          js.ID,
		State:       StateFailed,
		Progress:    Progress{TotalCells: js.TotalCells},
		Error:       err.Error(),
		SubmittedAt: js.SubmittedAt,
		FinishedAt:  now,
	}, nil)
}

// decodeCells rebuilds the typed per-cell rows and errors from the journaled
// outcomes. A row that fails to decode (a journal written by an incompatible
// build) is logged and left nil, so a resume re-runs that cell.
func (p *Pool) decodeCells(spec Spec, js *durable.JobState) ([]any, []error) {
	rows := make([]any, js.TotalCells)
	errs := make([]error, js.TotalCells)
	for idx, cs := range js.Cells {
		if idx < 0 || idx >= js.TotalCells {
			p.log.Warn("journaled cell index out of range", "job", js.ID, "cell", idx, "total", js.TotalCells)
			continue
		}
		if cs.Err != "" {
			errs[idx] = errors.New(cs.Err)
			continue
		}
		var row any
		var err error
		if spec.Experiment == campaign.Experiment {
			row, err = campaign.DecodeRow(cs.Row)
		} else {
			row, err = experiments.DecodeCellRow(spec.Experiment, cs.Row)
		}
		if err != nil {
			p.log.Warn("journaled cell row undecodable, will re-run", "job", js.ID, "cell", idx, "err", err)
			continue
		}
		rows[idx] = row
	}
	return rows, errs
}

// assembleRecovered merges recovered rows with the experiment's assembler
// (nil when the spec no longer plans, e.g. after a rename).
func (p *Pool) assembleRecovered(spec Spec, rows []any) any {
	if spec.Validate() != nil {
		return nil
	}
	_, assemble, err := p.plan(spec.Config(), spec.Experiment)
	if err != nil {
		return nil
	}
	return assemble(rows)
}

// resume re-enqueues a recovered, unfinished job: journaled cell outcomes
// are credited up front and only the remainder is handed to the workers. The
// job restarts its wall clock — WallClockS measures the resumed portion.
func (p *Pool) resume(job Job, rows []any, errs []error) {
	fail := func(err error) {
		p.log.Error("recovered job not resumable", "job", job.ID, "err", err)
		p.store.Finish(job.ID, nil, err, false)
	}
	cfg := job.Spec.Config()
	if err := p.applyWarmStart(&cfg, job.Spec.Experiment, job.Spec.WarmStart); err != nil {
		fail(err)
		return
	}
	rec := telemetry.NewRecorder(0)
	cfg.Run.Recorder = rec
	tracer := telemetry.NewTracer(0)
	flight := p.armFlightRecorder(&cfg, tracer, rec)
	cells, assemble, err := p.plan(cfg, job.Spec.Experiment)
	if err != nil {
		fail(fmt.Errorf("service: replan %s: %w", job.ID, err))
		return
	}
	if len(cells) != job.Progress.TotalCells {
		fail(fmt.Errorf("service: replan %s: plan is %d cells, journal recorded %d",
			job.ID, len(cells), job.Progress.TotalCells))
		return
	}
	p.store.BindRecorder(job.ID, rec)
	p.store.BindTracer(job.ID, tracer)
	flight.SetJob(job.ID)
	jctx, jcancel := context.WithCancel(p.ctx)
	p.store.BindCancel(job.ID, jcancel)
	jr := &jobRun{
		id:          job.ID,
		spec:        job.Spec,
		ctx:         jctx,
		cancel:      jcancel,
		assemble:    assemble,
		submittedAt: time.Now(),
		tracer:      tracer,
		events:      rec,
		flight:      flight,
		rows:        rows,
		errs:        errs,
	}
	jr.jobSpan = tracer.Start(0, telemetry.KindJob, job.ID,
		telemetry.Str("experiment", job.Spec.Experiment),
		telemetry.Num("cells", float64(len(cells))),
		telemetry.Str("resumed", "true"))
	p.watchStall(jr)
	var tasks []task
	for i := range cells {
		if rows[i] != nil || errs[i] != nil {
			continue
		}
		tasks = append(tasks, task{jr: jr, idx: i, cell: cells[i]})
	}
	jr.remaining = len(tasks)
	p.queued.Add(int64(len(tasks)))
	p.feederWG.Add(1)
	go p.feed(jr, tasks)
	p.log.Info("job resumed from journal", "job", job.ID,
		"recovered_cells", len(cells)-len(tasks), "pending_cells", len(tasks))
}
