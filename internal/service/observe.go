package service

import (
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// DefaultStallDeadline is the no-progress window after which a running job
// trips a stall alert when the flight recorder is enabled.
const DefaultStallDeadline = 5 * time.Minute

// EnableFlightRecorder arms per-job anomaly detection: every subsequent
// submission gets a flight recorder dumping into dir, thermal samples above
// ceilingC trip thermal-runaway alerts (0 disables the ceiling check), and a
// running job whose decision trace and cell progress both sit still for
// stallDeadline trips a stall alert (<= 0 selects DefaultStallDeadline).
// Call before serving traffic.
func (p *Pool) EnableFlightRecorder(dir string, ceilingC float64, stallDeadline time.Duration) {
	if stallDeadline <= 0 {
		stallDeadline = DefaultStallDeadline
	}
	p.flightDir = dir
	p.tempCeilingC = ceilingC
	p.stallDeadline = stallDeadline
}

// SetTraceStore attaches the archive that keeps finished jobs' span traces
// and epoch logs across eviction, and hooks store eviction so an evicted
// job's archive goes with it. Attach before serving traffic.
func (p *Pool) SetTraceStore(ts *durable.TraceStore) {
	p.traces = ts
	p.store.SetOnEvict(func(id string) {
		if err := ts.Delete(id); err != nil {
			p.log.Warn("evicted job's trace not deleted", "job", id, "err", err)
		}
	})
}

// TraceStore returns the attached archive (nil without a data directory);
// the HTTP layer serves evicted jobs' traces and epochs from it.
func (p *Pool) TraceStore() *durable.TraceStore { return p.traces }

// armFlightRecorder builds the job's flight recorder and threads anomaly
// detection into the simulation config (before planning, since cells capture
// the config by value). Returns nil — which every FlightRecorder method
// tolerates — when the recorder is not enabled.
func (p *Pool) armFlightRecorder(cfg *experiments.Config, tracer *telemetry.Tracer, epochs *telemetry.EpochLog) *telemetry.FlightRecorder {
	if p.flightDir == "" {
		return nil
	}
	flight := telemetry.NewFlightRecorder(p.flightDir, tracer, epochs, p.reg)
	cfg.Run.Anomalies = flight
	cfg.Run.TempCeilingC = p.tempCeilingC
	return flight
}

// watchStall starts the job's stall watchdog, when the flight recorder is
// armed. Progress is any movement of the epoch-log total or the cell
// done/failed counts; a running job that moves neither for the full deadline
// trips one stall alert (re-armed if progress later resumes). The watchdog
// exits with the job's context, which the pool cancels at finalization.
func (p *Pool) watchStall(jr *jobRun) {
	if jr.flight == nil || p.stallDeadline <= 0 {
		return
	}
	p.feederWG.Add(1)
	go func() {
		defer p.feederWG.Done()
		tick := time.NewTicker(p.stallDeadline / 4)
		defer tick.Stop()
		var lastSig int64 = -1
		lastChange := time.Now()
		tripped := false
		for {
			select {
			case <-jr.ctx.Done():
				return
			case <-tick.C:
				job, ok := p.store.Get(jr.id)
				if !ok || job.State.Terminal() {
					return
				}
				sig := jr.epochs.Total() +
					int64(job.Progress.DoneCells+job.Progress.FailedCells)<<32
				if sig != lastSig {
					lastSig, lastChange = sig, time.Now()
					tripped = false
					continue
				}
				if !tripped && job.State == StateRunning && time.Since(lastChange) >= p.stallDeadline {
					tripped = true
					stalled := time.Since(lastChange).Round(time.Second)
					p.log.Warn("job stalled", "job", jr.id, "stalled_for", stalled)
					jr.flight.Trip(telemetry.Anomaly{
						Kind:   telemetry.AnomalyStall,
						Job:    jr.id,
						Detail: fmt.Sprintf("no decision-epoch or cell progress for %s", stalled),
					})
				}
			}
		}
	}()
}

// archive persists a finalized job's span trace and epoch log, when an
// archive is attached.
func (p *Pool) archive(jr *jobRun) {
	if p.traces == nil {
		return
	}
	if err := p.traces.Save(jr.id, jr.tracer.Snapshot(), jr.epochs); err != nil {
		p.log.Warn("trace not archived", "job", jr.id, "err", err)
	}
}
