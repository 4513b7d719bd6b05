package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Decision-event kinds. Every decision epoch records one event: a plain
// decision, or one of the workload-variation handling outcomes of the
// paper's Section 5.4 (the controller maps its internal event strings onto
// these).
const (
	// EventDecision is a regular epoch: state observed, action applied.
	EventDecision = "decision"
	// EventQReset is an inter-application variation: the Q-table was reset
	// and learning restarted from scratch.
	EventQReset = "q_reset"
	// EventSnapshotRestore is an intra-application variation: the
	// exploration-end snapshot was restored.
	EventSnapshotRestore = "snapshot_restore"
	// EventAdopt is an inter-application variation answered from the
	// signature library (policy adopted instead of re-learned).
	EventAdopt = "adopt"
	// EventAdoptConfirmed and EventAdoptReverted resolve a tentative
	// adoption once the moving averages settle.
	EventAdoptConfirmed = "adopt_confirmed"
	EventAdoptReverted  = "adopt_reverted"
	// EventWarmStart marks the first epoch of a controller whose agent was
	// seeded from a persisted checkpoint instead of a zero table.
	EventWarmStart = "warm_start"
)

// DecisionEvent is one recorded RL decision epoch.
type DecisionEvent struct {
	// Epoch is the controller's local epoch index (1-based).
	Epoch int `json:"epoch"`
	// TimeS is the simulated time at the end of the epoch, seconds.
	TimeS float64 `json:"time_s"`
	// Workload names the running workload (a sequence reports its own name).
	Workload string `json:"workload,omitempty"`
	// State and Action are the Q-table indices used this epoch.
	State  int `json:"state"`
	Action int `json:"action"`
	// Reward is the Eq. 8 value granted for the previous action (0 on the
	// first epoch, which has no previous action).
	Reward float64 `json:"reward"`
	// Alpha is the learning rate after the epoch.
	Alpha float64 `json:"alpha"`
	// Phase is the agent's learning phase after the epoch (exploration,
	// exploration-exploitation or exploitation).
	Phase string `json:"phase,omitempty"`
	// Explored marks an epoch whose action was picked by exploration rather
	// than greedily.
	Explored bool `json:"explored,omitempty"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// SwitchDetected marks epochs where the variation detector fired
	// (q_reset, snapshot_restore and adopt events).
	SwitchDetected bool `json:"switch_detected,omitempty"`
}

// DefaultRecorderCapacity bounds a recorder when the caller passes a
// non-positive capacity.
const DefaultRecorderCapacity = 8192

// Recorder is a bounded ring buffer of decision events: once full, new
// events overwrite the oldest, so the newest N survive. The ring grows by
// append up to its limit, so a short job never pays for the full capacity.
// It is safe for concurrent use — several simulation cells of one job may
// record into the same recorder while an HTTP handler drains it.
type Recorder struct {
	mu      sync.Mutex
	buf     []DecisionEvent
	limit   int
	next    int
	full    bool
	dropped int64
	// total counts every event ever recorded (retained or overwritten); it
	// is the cursor space of Since.
	total int64
}

// Ring overwrites are surfaced process-wide so /metrics shows when decision
// traces are being truncated (the recorder itself only knows its own drops,
// which die with the job's eviction).
var (
	dropCounterOnce sync.Once
	dropCounter     *Counter
)

func recorderDropCounter() *Counter {
	dropCounterOnce.Do(func() {
		dropCounter = Default().Counter("telemetry_decision_events_dropped_total",
			"Decision events overwritten by recorder ring wraparound, across all recorders.")
	})
	return dropCounter
}

// NewRecorder builds a recorder keeping the newest capacity events
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{limit: capacity}
}

// Record appends one event, overwriting the oldest when full. NaN rewards
// (no previous action yet) are stored as 0 so the JSONL dump stays valid.
func (r *Recorder) Record(ev DecisionEvent) {
	if math.IsNaN(ev.Reward) {
		ev.Reward = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if !r.full && len(r.buf) < r.limit {
		r.buf = append(r.buf, ev)
		return
	}
	r.full = true
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
	recorderDropCounter().Inc()
}

// Total returns how many events were ever recorded, including overwritten
// ones; it only grows, so it doubles as a progress signal for watchdogs.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Since returns the events recorded after the given cursor (a value
// previously returned by Since, or 0 for "from the beginning") plus the new
// cursor. Events that were already overwritten when Since is called are
// skipped — the live stream endpoint trades completeness under extreme lag
// for bounded memory.
func (r *Recorder) Since(cursor int64) ([]DecisionEvent, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cursor >= r.total {
		return nil, r.total
	}
	n := r.total - cursor
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	out := make([]DecisionEvent, 0, n)
	// Oldest-first ordering of the retained ring, then keep the last n.
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out[int64(len(out))-n:], r.total
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []DecisionEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionEvent, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
