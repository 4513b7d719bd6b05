// Package rl implements the tabular Q-learning machinery of the paper
// (Watkins-style Q-learning, Eq. 7) together with the learning-phase
// management of Section 5.3: an exponentially decaying learning rate moves
// the agent through exploration, exploration-exploitation and exploitation,
// and a snapshot of the Q-table at the end of exploration supports the
// dual-table intra-application re-learning of Section 5.4.
package rl

import (
	"fmt"
	"math/rand"
)

// QTable is a dense state-action value table.
type QTable struct {
	numStates, numActions int
	q                     []float64 // row-major [state][action]
}

// NewQTable creates a zero-initialized table.
func NewQTable(numStates, numActions int) *QTable {
	if numStates <= 0 || numActions <= 0 {
		panic(fmt.Sprintf("rl: table dimensions must be positive, got %dx%d", numStates, numActions))
	}
	return &QTable{
		numStates:  numStates,
		numActions: numActions,
		q:          make([]float64, numStates*numActions),
	}
}

// NumStates returns the state count.
func (t *QTable) NumStates() int { return t.numStates }

// NumActions returns the action count.
func (t *QTable) NumActions() int { return t.numActions }

// Get returns Q(s, a).
func (t *QTable) Get(s, a int) float64 { return t.q[s*t.numActions+a] }

// Set assigns Q(s, a).
func (t *QTable) Set(s, a int, v float64) { t.q[s*t.numActions+a] = v }

// MaxQ returns max_a Q(s, a).
func (t *QTable) MaxQ(s int) float64 {
	row := t.q[s*t.numActions : (s+1)*t.numActions]
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// BestAction returns argmax_a Q(s, a); ties break toward the lowest index.
func (t *QTable) BestAction(s int) int {
	row := t.q[s*t.numActions : (s+1)*t.numActions]
	best, bestV := 0, row[0]
	for a, v := range row[1:] {
		if v > bestV {
			best, bestV = a+1, v
		}
	}
	return best
}

// Update applies the Q-learning update of Eq. 7:
//
//	Q(s,a) += alpha * (r + gamma*max_a' Q(s',a') - Q(s,a))
func (t *QTable) Update(s, a int, r, alpha, gamma float64, next int) {
	idx := s*t.numActions + a
	t.q[idx] += alpha * (r + gamma*t.MaxQ(next) - t.q[idx])
}

// UpdateSARSA applies the on-policy SARSA update, which bootstraps from the
// action actually selected in the next state rather than the greedy maximum:
//
//	Q(s,a) += alpha * (r + gamma*Q(s',a') - Q(s,a))
//
// Provided for algorithm comparisons against the paper's Q-learning.
func (t *QTable) UpdateSARSA(s, a int, r, alpha, gamma float64, next, nextAction int) {
	idx := s*t.numActions + a
	t.q[idx] += alpha * (r + gamma*t.Get(next, nextAction) - t.q[idx])
}

// Reset zeroes every entry.
func (t *QTable) Reset() {
	for i := range t.q {
		t.q[i] = 0
	}
}

// Clone returns a deep copy.
func (t *QTable) Clone() *QTable {
	c := NewQTable(t.numStates, t.numActions)
	copy(c.q, t.q)
	return c
}

// CopyFrom overwrites this table with the contents of other (which must have
// identical dimensions).
func (t *QTable) CopyFrom(other *QTable) {
	if t.numStates != other.numStates || t.numActions != other.numActions {
		panic(fmt.Sprintf("rl: CopyFrom dimension mismatch: %dx%d vs %dx%d",
			t.numStates, t.numActions, other.numStates, other.numActions))
	}
	copy(t.q, other.q)
}

// Phase is the learning phase of Section 5.3.
type Phase int

// The three learning phases.
const (
	// Exploration: alpha near 1, actions chosen mostly at random.
	Exploration Phase = iota
	// ExplorationExploitation: best actions chosen, table still updated
	// with a meaningful fraction of the reward.
	ExplorationExploitation
	// Exploitation: best actions chosen, table essentially frozen.
	Exploitation
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Exploration:
		return "exploration"
	case ExplorationExploitation:
		return "exploration-exploitation"
	case Exploitation:
		return "exploitation"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// AgentConfig parameterizes the learning agent.
type AgentConfig struct {
	// NumStates and NumActions size the Q-table.
	NumStates, NumActions int
	// Gamma is the discount rate of Eq. 7.
	Gamma float64
	// AlphaDecay is the per-epoch multiplicative decay of the learning
	// rate (the "exponentially decreasing function" of Section 5.3).
	AlphaDecay float64
	// ExploreThreshold: alpha above this means the exploration phase.
	ExploreThreshold float64
	// ExploitThreshold: alpha below this means the exploitation phase.
	ExploitThreshold float64
	// AlphaExp is the learning rate restored on an intra-application
	// variation (Section 5.4), resuming moderate learning.
	AlphaExp float64
	// Hysteresis is the Q-value margin for sticky action selection: when
	// greedy, the previously applied action is kept unless the best
	// action's Q value exceeds the previous action's by more than this
	// margin. This suppresses action flapping at state-bin boundaries,
	// which would itself induce thermal cycling. Zero disables stickiness.
	Hysteresis float64
	// Seed drives exploratory action selection.
	Seed int64
}

// DefaultAgentConfig returns the tuned defaults used by the controller.
func DefaultAgentConfig(numStates, numActions int) AgentConfig {
	return AgentConfig{
		NumStates:        numStates,
		NumActions:       numActions,
		Gamma:            0.8,
		AlphaDecay:       0.87,
		ExploreThreshold: 0.55,
		ExploitThreshold: 0.06,
		AlphaExp:         0.20,
		Hysteresis:       0.30,
		Seed:             42,
	}
}

// Agent is a Q-learning agent with phase management and a dual Q-table: the
// live table plus a snapshot captured at the end of the exploration phase
// (Section 5.4 "the agent maintains two Q-Tables").
type Agent struct {
	cfg   AgentConfig
	q     *QTable
	snap  *QTable
	alpha float64
	rng   *rand.Rand

	snapTaken bool
	epochs    int
	relearns  int
	restores  int
	adoptions int
	// hook, when non-nil, receives the TD error of every update. The nil
	// receiver pattern keeps the disabled path to a single branch.
	hook *EpochHook
	// lastExplored records whether the most recent action selection was
	// exploratory (random) rather than greedy — observable per-epoch in the
	// decision trace.
	lastExplored bool
}

// NewAgent builds a fresh agent with alpha = 1 (full exploration).
func NewAgent(cfg AgentConfig) *Agent {
	initMetrics()
	return &Agent{
		cfg:   cfg,
		q:     NewQTable(cfg.NumStates, cfg.NumActions),
		alpha: 1.0,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Q exposes the live Q-table (read-mostly; the controller may inspect it).
func (a *Agent) Q() *QTable { return a.q }

// Alpha returns the current learning rate.
func (a *Agent) Alpha() float64 { return a.alpha }

// Epochs returns how many decision epochs the agent has processed.
func (a *Agent) Epochs() int { return a.epochs }

// Relearns returns how many times the agent restarted learning from scratch
// (inter-application variations).
func (a *Agent) Relearns() int { return a.relearns }

// Restores returns how many times the agent restored the exploration-end
// snapshot (intra-application variations).
func (a *Agent) Restores() int { return a.restores }

// Phase returns the current learning phase derived from alpha.
func (a *Agent) Phase() Phase {
	switch {
	case a.alpha >= a.cfg.ExploreThreshold:
		return Exploration
	case a.alpha <= a.cfg.ExploitThreshold:
		return Exploitation
	default:
		return ExplorationExploitation
	}
}

// SelectAction picks the next action for the state: with probability alpha a
// uniformly random action (exploration), otherwise the greedy action. As
// alpha decays this smoothly moves the agent from arbitrary selection
// (Section 5.3 exploration) to pure exploitation.
func (a *Agent) SelectAction(state int) int {
	return a.SelectActionSticky(state, -1)
}

// SelectActionSticky is SelectAction with hysteresis: when selecting
// greedily and prevAction is valid, the previous action is kept unless the
// greedy action's Q value beats it by more than the configured Hysteresis
// margin. Pass prevAction = -1 to disable stickiness for this call.
func (a *Agent) SelectActionSticky(state, prevAction int) int {
	if a.rng.Float64() < a.alpha {
		mActionsExplore.Inc()
		a.lastExplored = true
		return a.rng.Intn(a.cfg.NumActions)
	}
	mActionsGreedy.Inc()
	a.lastExplored = false
	best := a.q.BestAction(state)
	if prevAction >= 0 && prevAction < a.cfg.NumActions && prevAction != best &&
		a.q.Get(state, prevAction) >= a.q.Get(state, best)-a.cfg.Hysteresis {
		return prevAction
	}
	return best
}

// LastSelectionExplored reports whether the most recent SelectAction /
// SelectActionSticky call took the exploratory branch.
func (a *Agent) LastSelectionExplored() bool { return a.lastExplored }

// AttachHook points the agent's updates at a run's epoch hook (nil
// detaches). The hook only observes TD errors; it never touches the
// action-selection RNG, so attaching one cannot perturb the learned policy.
func (a *Agent) AttachHook(h *EpochHook) { a.hook = h }

// Observe applies the Eq. 7 update for the transition
// (prevState, action) -> reward, newState using the current learning rate.
func (a *Agent) Observe(prevState, action int, reward float64, newState int) {
	mReward.Observe(reward)
	if a.hook != nil {
		a.hook.ObserveTD(reward + a.cfg.Gamma*a.q.MaxQ(newState) - a.q.Get(prevState, action))
	}
	a.q.Update(prevState, action, reward, a.alpha, a.cfg.Gamma, newState)
}

// ObserveSARSA applies the on-policy update using the action selected in the
// new state (see QTable.UpdateSARSA).
func (a *Agent) ObserveSARSA(prevState, action int, reward float64, newState, newAction int) {
	mReward.Observe(reward)
	if a.hook != nil {
		a.hook.ObserveTD(reward + a.cfg.Gamma*a.q.Get(newState, newAction) - a.q.Get(prevState, action))
	}
	a.q.UpdateSARSA(prevState, action, reward, a.alpha, a.cfg.Gamma, newState, newAction)
}

// EndEpoch advances the learning-rate schedule. The Q-table snapshot is
// captured the first time alpha decays past the exploration threshold —
// i.e. at the end of the exploration phase.
func (a *Agent) EndEpoch() {
	a.epochs++
	a.alpha *= a.cfg.AlphaDecay
	mEpochs.Inc()
	mAlpha.Set(a.alpha)
	if !a.snapTaken && a.alpha < a.cfg.ExploreThreshold {
		a.snap = a.q.Clone()
		a.snapTaken = true
	}
}

// Relearn resets the Q-table to zero and alpha to 1, restarting learning
// from scratch. The controller invokes it on an inter-application variation
// (Section 5.4).
func (a *Agent) Relearn() {
	a.q.Reset()
	a.alpha = 1.0
	a.snapTaken = false
	a.snap = nil
	a.relearns++
	mQResets.Inc()
}

// RestoreSnapshot reloads the Q values captured at the end of the
// exploration phase and sets alpha to AlphaExp. The controller invokes it on
// an intra-application variation (Section 5.4). If no snapshot exists yet
// (still exploring) it is a no-op apart from the alpha bump.
func (a *Agent) RestoreSnapshot() {
	if a.snapTaken {
		a.q.CopyFrom(a.snap)
	}
	a.alpha = a.cfg.AlphaExp
	a.restores++
	mRestores.Inc()
}

// AdoptTable replaces the live Q-table with a copy of t and sets the
// learning rate, e.g. to resume a previously learned policy for a
// re-recognized application. The table must match the agent's dimensions.
func (a *Agent) AdoptTable(t *QTable, alpha float64) {
	a.q.CopyFrom(t)
	a.alpha = alpha
	a.adoptions++
	mAdoptions.Inc()
}

// Adoptions returns how many times a stored policy was adopted via
// AdoptTable.
func (a *Agent) Adoptions() int { return a.adoptions }

// SetAlpha overrides the learning rate directly (clamped to [0, 1]), e.g.
// to freeze learning after an adopted policy is confirmed.
func (a *Agent) SetAlpha(alpha float64) {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	a.alpha = alpha
}

// Converged reports whether the agent has reached the exploitation phase.
func (a *Agent) Converged() bool { return a.Phase() == Exploitation }

// EpochsToConverge returns the number of epochs needed for alpha to decay
// from 1 to the exploitation threshold under the configured schedule; this
// is the analytic training-time measure plotted in Fig. 8.
func (cfg AgentConfig) EpochsToConverge() int {
	n := 0
	alpha := 1.0
	for alpha > cfg.ExploitThreshold {
		alpha *= cfg.AlphaDecay
		n++
		if n > 1_000_000 {
			break
		}
	}
	return n
}
