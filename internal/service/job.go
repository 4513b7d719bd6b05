// Package service is the repository's concurrent simulation-job subsystem:
// a typed job model, an in-memory store with TTL eviction, and a bounded
// worker pool that fans the cells of an experiment campaign out across all
// cores. The cmd/thermserved binary exposes it over HTTP. Cells are
// independent and explicitly seeded, so a pooled campaign produces rows
// bit-identical to experiments.RunRows.
package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// State is a job's position in the pending → running → done/failed/cancelled
// lifecycle.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transition may leave s.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// CanTransition reports whether a job may move from s to next.
func (s State) CanTransition(next State) bool {
	switch s {
	case StatePending:
		return next == StateRunning || next == StateCancelled
	case StateRunning:
		return next == StateDone || next == StateFailed || next == StateCancelled
	}
	return false
}

// Spec describes one simulation campaign to run: which experiment, at which
// fidelity, under which base RL seed.
type Spec struct {
	// Experiment is one of experiments.ExperimentNames().
	Experiment string `json:"experiment"`
	// Quick runs the reduced sweeps (the smoke-test fidelity).
	Quick bool `json:"quick,omitempty"`
	// Repeats overrides the seed-repeat count of learning-sensitive sweeps.
	Repeats int `json:"repeats,omitempty"`
	// Seed is the base RL seed; 0 keeps the package default, making a
	// pooled run bit-identical to plain experiments.RunRows.
	Seed int64 `json:"seed,omitempty"`
	// WarmStart names a stored checkpoint; when set, the payload is routed
	// to the policy whose kind matches (a proposed-kind table warm-starts
	// the proposed controller via rl.Agent.AdoptTable; other kinds reach
	// their learner through a tournament's campaign document). Requires the
	// server to run with a data directory.
	WarmStart string `json:"warm_start,omitempty"`
	// Campaign is the declarative tournament document (the experiments.json
	// spec), required when — and only valid when — Experiment is
	// campaign.Experiment ("tournament").
	Campaign json.RawMessage `json:"campaign,omitempty"`
}

// Validate rejects specs the runner could not execute.
func (s Spec) Validate() error {
	if s.Experiment == "" {
		return fmt.Errorf("service: spec missing experiment")
	}
	if s.Experiment == campaign.Experiment {
		if len(s.Campaign) == 0 {
			return fmt.Errorf("service: tournament spec missing campaign document")
		}
		if _, err := campaign.ParseSpec(s.Campaign); err != nil {
			return err
		}
	} else {
		if len(s.Campaign) > 0 {
			return fmt.Errorf("service: campaign document only valid with experiment %q, got %q", campaign.Experiment, s.Experiment)
		}
		if !slices.Contains(experiments.ExperimentNames(), s.Experiment) {
			return fmt.Errorf("service: unknown experiment %q (want one of %v)", s.Experiment, experiments.ExperimentNames())
		}
	}
	if s.Repeats < 0 {
		return fmt.Errorf("service: negative repeats %d", s.Repeats)
	}
	return nil
}

// Config converts the spec into an experiments.Config. A nonzero base seed
// is decorrelated per experiment via DeriveSeed, so two jobs sharing a base
// seed but running different campaigns explore distinct RL trajectories
// while resubmitting the identical spec stays bit-reproducible.
func (s Spec) Config() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Quick = s.Quick
	cfg.Repeats = s.Repeats
	cfg.CampaignJSON = s.Campaign
	if s.Seed != 0 {
		cfg.Seed = DeriveSeed(s.Seed, s.Experiment)
	}
	return cfg
}

// DeriveSeed maps a base seed and a label to a decorrelated, deterministic
// child seed: FNV-1a over the label mixed into the base through a
// splitmix64 finalizer. The result is never 0, so a derived seed always
// overrides the package default.
func DeriveSeed(base int64, label string) int64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := uint64(base) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

// Progress counts a job's cells through the pool.
type Progress struct {
	// TotalCells is the campaign's cell count, fixed at submission.
	TotalCells int `json:"total_cells"`
	// DoneCells and FailedCells count finished cells; a cancelled job may
	// leave cells in neither bucket.
	DoneCells   int `json:"done_cells"`
	FailedCells int `json:"failed_cells"`
}

// Job is a point-in-time snapshot of one submitted campaign, safe to retain
// and serialize; the store keeps the authoritative record.
type Job struct {
	ID       string   `json:"id"`
	Spec     Spec     `json:"spec"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Error carries the joined per-cell errors of a failed job.
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// WallClockS is the running time (start to finish), seconds.
	WallClockS float64 `json:"wall_clock_s,omitempty"`
}
