package telemetry

import (
	"bufio"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// Decision-epoch kinds. Every decision epoch is one plain decision or one of
// the workload-variation handling outcomes of the paper's Section 5.4 (the
// controller maps its internal event strings onto these).
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

// Epoch is the one record of a learning policy's decision epoch (the body of
// the paper's Algorithm 1): the state it observed and the window that
// produced it, the action it chose, the reward it was granted, how its
// learning moved, and its workload-variation verdict. Every per-epoch view —
// the /events and -events JSONL, the /live stream, epoch spans, the learning
// curves and the flight-recorder dump — is a rendering of these records.
type Epoch struct {
	// Epoch is the policy's local epoch index (1-based).
	Epoch int `json:"epoch"`
	// TimeS is the simulated time at the end of the epoch, seconds.
	TimeS float64 `json:"time_s"`
	// Workload names the running workload (a sequence reports its own name).
	Workload string `json:"workload,omitempty"`
	// State and Action are the Q-table indices used this epoch.
	State  int `json:"state"`
	Action int `json:"action"`
	// Reward is the reward granted for the previous action. The first epoch
	// has no previous action: its reward is NaN until the log stores it as 0.
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
	// AbsTD is the magnitude of the epoch's temporal-difference error,
	// Coverage the fraction of Q-table states visited so far, Stability the
	// fraction of states whose greedy action did not change this epoch, and
	// Damage the thermal-cycling stress closed during the epoch's window.
	AbsTD     float64 `json:"abs_td"`
	Coverage  float64 `json:"coverage"`
	Stability float64 `json:"stability"`
	Damage    float64 `json:"damage"`
	// SamplingS is the temperature sampling interval of the epoch's window;
	// Stress, Aging, AvgTempC, PeakTempC and Throughput are the window
	// metrics the state was derived from (zero where a policy does not
	// measure one).
	SamplingS  float64 `json:"sampling_s"`
	Stress     float64 `json:"stress"`
	Aging      float64 `json:"aging"`
	AvgTempC   float64 `json:"avg_temp_c"`
	PeakTempC  float64 `json:"peak_temp_c"`
	Throughput float64 `json:"throughput"`
}

// SpanAttrs renders the record's decision as the attributes of its epoch
// span, with the variation verdict under "event". The learning-curve and
// window statistics stay in the epoch log, so span batches keep their size.
func (e *Epoch) SpanAttrs() []Attr {
	return []Attr{
		Num("epoch", float64(e.Epoch)),
		Num("time_s", e.TimeS),
		Str("workload", e.Workload),
		Num("state", float64(e.State)),
		Num("action", float64(e.Action)),
		Num("reward", e.Reward),
		Num("alpha", e.Alpha),
		Str("phase", e.Phase),
		Bool("explored", e.Explored),
		Str("event", e.Kind),
		Bool("switch_detected", e.SwitchDetected),
	}
}

// RunSummary condenses one run's records: where (if anywhere) the greedy
// policy converged, how much of the table was explored, and which cores and
// actions absorbed the thermal-cycling damage.
type RunSummary struct {
	// Epochs is the number of decision epochs.
	Epochs int `json:"epochs"`
	// ConvergeEpoch is the first epoch of the window over which the greedy
	// policy never changed again; -1 if the detector never fired.
	ConvergeEpoch int `json:"converge_epoch"`
	// Coverage is the final state-visit coverage in [0, 1].
	Coverage float64 `json:"coverage"`
	// MeanReward averages the granted (non-NaN) epoch rewards.
	MeanReward float64 `json:"mean_reward"`
	// FinalAlpha is the learning rate after the last epoch.
	FinalAlpha float64 `json:"final_alpha"`
	// CoreDamage is the attributed thermal-cycling stress per core, including
	// the cycles closed after the last epoch (empty when the run carried no
	// attribution feed).
	CoreDamage []float64 `json:"core_damage,omitempty"`
	// CoreDamageShare is CoreDamage normalized to sum to 1 (empty when no
	// damage was attributed).
	CoreDamageShare []float64 `json:"core_damage_share,omitempty"`
	// ActionDamage is the attributed stress per action index.
	ActionDamage []float64 `json:"action_damage,omitempty"`
}

// EpochRun is one run's share of an EpochLog: its coordinates, its records in
// epoch order and, once the run finished, its summary. One EpochRun per line
// is the log's archive form and the ?format=jsonl body of /learning.
type EpochRun struct {
	Policy   string      `json:"policy"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed,omitempty"`
	Repeat   int         `json:"repeat,omitempty"`
	Points   []Epoch     `json:"points"`
	Summary  *RunSummary `json:"summary,omitempty"`
}

// EpochLog is the one log of a job's (or a thermsim invocation's) decision
// epochs, filed by run under the run's coordinates (policy, workload, seed,
// repeat). It is unbounded — a run's records are what its learning curve is
// made of — and safe for concurrent use: the cells of a job append from
// several workers while HTTP handlers render. A nil *EpochLog discards.
type EpochLog struct {
	*epochStore
	// key, when set, holds the coordinates For assigned to this view.
	key *EpochRun
}

type epochStore struct {
	mu   sync.Mutex
	runs []*EpochRun
	// order lists every record in append order: the cursor space of Since.
	order []epochRef
}

type epochRef struct {
	run *EpochRun
	i   int
}

// NewEpochLog returns an empty log.
func NewEpochLog() *EpochLog { return &EpochLog{epochStore: &epochStore{}} }

// For returns a view of the log that files every run begun through it under
// the given coordinates instead of the names the simulation reports — how a
// tournament cell keys its run by the spec's policy, workload, seed and
// repeat.
func (l *EpochLog) For(policy, workload string, seed int64, repeat int) *EpochLog {
	return &EpochLog{epochStore: l.epochStore, key: &EpochRun{Policy: policy, Workload: workload, Seed: seed, Repeat: repeat}}
}

// Begin files a new, unfinished run and returns it for Append and Finish
// (nil on a nil log).
func (l *EpochLog) Begin(policy, workload string) *EpochRun {
	if l == nil {
		return nil
	}
	run := &EpochRun{Policy: policy, Workload: workload}
	if l.key != nil {
		*run = *l.key
	}
	l.mu.Lock()
	l.runs = append(l.runs, run)
	l.mu.Unlock()
	return run
}

// Append adds the next record of run. A NaN reward (no previous action) is
// stored as 0, so every rendering is valid JSON.
func (l *EpochLog) Append(run *EpochRun, e Epoch) {
	if l == nil {
		return
	}
	if math.IsNaN(e.Reward) {
		e.Reward = 0
	}
	l.mu.Lock()
	run.Points = append(run.Points, e)
	l.order = append(l.order, epochRef{run, len(run.Points) - 1})
	l.mu.Unlock()
}

// Finish attaches run's summary, marking it complete, and trims the run's
// records to their length: a job keeps its log until eviction, and append
// growth leaves up to half of a slice unused.
func (l *EpochLog) Finish(run *EpochRun, sum RunSummary) {
	if l == nil {
		return
	}
	l.mu.Lock()
	run.Summary = &sum
	run.Points = slices.Clone(run.Points)
	l.mu.Unlock()
}

// Total returns how many records were appended; it only grows, so it doubles
// as a progress signal for watchdogs.
func (l *EpochLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.order))
}

// Since returns the records appended after cursor (a value Since returned
// before, or 0 for "from the beginning"), in append order, and the new
// cursor.
func (l *EpochLog) Since(cursor int64) ([]Epoch, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	total := int64(len(l.order))
	cursor = max(cursor, 0)
	if cursor >= total {
		return nil, total
	}
	out := make([]Epoch, 0, total-cursor)
	for _, ref := range l.order[cursor:] {
		out = append(out, ref.run.Points[ref.i])
	}
	return out, total
}

// Runs returns a snapshot of every run sorted by (policy, workload, seed,
// repeat) and then by content, so the order depends only on what ran, not
// on the order runs were scheduled or finished in. (Plain experiment runs
// carry no seed or repeat, so many of their coordinates tie.)
func (l *EpochLog) Runs() []EpochRun {
	if l == nil {
		return nil
	}
	type keyed struct {
		r       EpochRun
		content string
	}
	l.mu.Lock()
	ks := make([]keyed, len(l.runs))
	for i, r := range l.runs {
		ks[i].r = *r
		ks[i].r.Points = r.Points[:len(r.Points):len(r.Points)]
	}
	l.mu.Unlock()
	for i := range ks {
		var sum RunSummary
		if ks[i].r.Summary != nil {
			sum = *ks[i].r.Summary
		}
		ks[i].content = fmt.Sprint(ks[i].r.Points, ks[i].r.Summary != nil, sum)
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(
			cmp.Compare(a.r.Policy, b.r.Policy),
			cmp.Compare(a.r.Workload, b.r.Workload),
			cmp.Compare(a.r.Seed, b.r.Seed),
			cmp.Compare(a.r.Repeat, b.r.Repeat),
			cmp.Compare(a.content, b.content),
		)
	})
	runs := make([]EpochRun, len(ks))
	for i, k := range ks {
		runs[i] = k.r
	}
	return runs
}

// Finished returns the Runs that have a summary.
func (l *EpochLog) Finished() []EpochRun {
	return slices.DeleteFunc(l.Runs(), func(r EpochRun) bool { return r.Summary == nil })
}

// WriteEvents writes every record as one JSON object per line, grouped by run
// in Runs order (GET /v1/jobs/{id}/events, thermsim -events).
func (l *EpochLog) WriteEvents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range l.Runs() {
		for i := range r.Points {
			if err := enc.Encode(&r.Points[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteRuns writes runs as one EpochRun JSON object per line: with the
// finished runs, the ?format=jsonl body of /learning; with every run, the
// archive form DecodeEpochLog reads back.
func WriteRuns(w io.Writer, runs []EpochRun) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range runs {
		if err := enc.Encode(&runs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeEpochLog reads a WriteRuns archive back into a log.
func DecodeEpochLog(r io.Reader) (*EpochLog, error) {
	l := NewEpochLog()
	dec := json.NewDecoder(r)
	for i := 1; ; i++ {
		run := new(EpochRun)
		if err := dec.Decode(run); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: epoch archive line %d: %w", i, err)
		}
		l.runs = append(l.runs, run)
		for j := range run.Points {
			l.order = append(l.order, epochRef{run, j})
		}
	}
}

// curveCSVHeader is the learning-curve CSV column order (thermsim
// -learning-csv).
var curveCSVHeader = []string{
	"policy", "workload", "seed", "repeat",
	"epoch", "time_s", "reward", "abs_td", "alpha", "coverage", "stability", "damage",
}

// WriteCSV renders the learning curves of the finished runs as one flat CSV,
// one row per (policy, workload, seed, repeat, epoch). Floats use Go's
// shortest exact representation and runs come in Runs order, so equal logs
// produce byte-equal output.
func (l *EpochLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(curveCSVHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range l.Finished() {
		for _, p := range r.Points {
			rec := []string{
				r.Policy, r.Workload,
				strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Repeat),
				strconv.Itoa(p.Epoch), ff(p.TimeS), ff(p.Reward), ff(p.AbsTD),
				ff(p.Alpha), ff(p.Coverage), ff(p.Stability), ff(p.Damage),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
