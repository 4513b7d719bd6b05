package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.SamplingIntervalS = 1.0
	cfg.EpochSamples = 3
	return cfg
}

// recordEpochs attaches an epoch hook that keeps every record c emits.
func recordEpochs(c *Controller) *[]telemetry.Epoch {
	var epochs []telemetry.Epoch
	c.AttachEpochHook(rl.NewEpochHook(0, func(e telemetry.Epoch) { epochs = append(epochs, e) }))
	return &epochs
}

func controllerFixture(t *testing.T, cfg Config) (*Controller, *platform.Platform) {
	t.Helper()
	app := workload.Tachyon(workload.Set3)
	p := platform.New(platform.DefaultConfig(), app)
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestNewValidation(t *testing.T) {
	app := workload.Tachyon(workload.Set3)
	p := platform.New(platform.DefaultConfig(), app)
	bad := DefaultConfig()
	bad.SamplingIntervalS = 0
	if _, err := New(bad, p); err == nil {
		t.Error("expected error for zero sampling interval")
	}
	bad = DefaultConfig()
	bad.EpochSamples = 1
	if _, err := New(bad, p); err == nil {
		t.Error("expected error for 1-sample epoch")
	}
	bad = DefaultConfig()
	bad.Actions = nil
	if _, err := New(bad, p); err == nil {
		t.Error("expected error for empty action space")
	}
}

func TestControllerEpochCadence(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	hist := recordEpochs(c)
	// 10 simulated seconds at 1 s sampling, 3-sample epochs -> 3 epochs.
	for p.Now() < 10 {
		p.Step()
		c.Tick()
	}
	if got := len(*hist); got != 3 {
		t.Errorf("epochs after 10 s = %d, want 3", got)
	}
	if c.EpochSeconds() != 3 {
		t.Errorf("EpochSeconds = %g, want 3", c.EpochSeconds())
	}
}

func TestControllerSamplesChargeCounters(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	before := p.PerfCounters().CacheMisses
	for p.Now() < 5 {
		p.Step()
		c.Tick()
	}
	// 5 sensor reads expected (1 s interval).
	charged := p.PerfCounters().CacheMisses - before
	perSample := platform.DefaultConfig().SampleCacheMisses
	if charged < 4*perSample {
		t.Errorf("sampling charged only %d cache misses, want >= %d", charged, 4*perSample)
	}
}

func TestControllerAppliesActions(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	hist := recordEpochs(c)
	for p.Now() < 20 {
		p.Step()
		c.Tick()
	}
	if len(*hist) == 0 {
		t.Fatal("no epochs ran")
	}
	// The platform's governors must have been replaced at least once: check
	// that a recorded action index is within range and history is coherent.
	for _, h := range *hist {
		if h.Action < 0 || h.Action >= len(cfg.Actions) {
			t.Errorf("recorded action %d out of range", h.Action)
		}
		if h.State < 0 || h.State >= cfg.States.NumStates() {
			t.Errorf("recorded state %d out of range", h.State)
		}
	}
}

func TestControllerAlphaDecaysOverEpochs(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	start := c.Agent().Alpha()
	for p.Now() < 30 {
		p.Step()
		c.Tick()
	}
	if c.Agent().Alpha() >= start {
		t.Error("alpha must decay as epochs pass")
	}
	if c.Agent().Epochs() == 0 {
		t.Error("no epochs processed")
	}
}

func TestControllerRewardRecordedAfterFirstEpoch(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	hist := recordEpochs(c)
	for p.Now() < 12 {
		p.Step()
		c.Tick()
	}
	h := *hist
	if len(h) < 2 {
		t.Fatal("need at least 2 epochs")
	}
	// First epoch has no previous action: NaN reward.
	if h[0].Reward == h[0].Reward {
		t.Error("first epoch reward should be NaN (no previous action)")
	}
	if h[1].Reward != h[1].Reward {
		t.Error("second epoch reward should be a real number")
	}
}

func TestControllerInterAppRelearn(t *testing.T) {
	// Build a hot-then-cool sequence; once converged the controller should
	// detect the switch and relearn.
	hot := workload.Tachyon(workload.Set1)
	cool := workload.MPEGDec(workload.Set1)
	seq := workload.NewSequence(hot, cool)
	p := platform.New(platform.DefaultConfig(), seq)
	cfg := DefaultConfig()
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for !p.Done() && p.Now() < 4000 {
		p.Step()
		c.Tick()
	}
	if !p.Done() {
		t.Fatal("sequence did not finish")
	}
	if c.Agent().Relearns() == 0 {
		t.Error("controller never detected the application switch (no relearn)")
	}
}

func TestControllerConvergenceTracking(t *testing.T) {
	cfg := quickConfig()
	cfg.ConvergeFraction = 0.01 // trivially reachable
	c, p := controllerFixture(t, cfg)
	for p.Now() < 20 {
		p.Step()
		c.Tick()
	}
	if c.ConvergedEpoch() < 0 {
		t.Error("convergence should have fired with a tiny fraction")
	}
	if c.LastFillEpoch() == 0 {
		t.Error("LastFillEpoch should be set after visits")
	}
}

func TestControllerDecisionOverheadSlowsRun(t *testing.T) {
	run := func(overhead float64) float64 {
		app := workload.Tachyon(workload.Set3)
		p := platform.New(platform.DefaultConfig(), app)
		cfg := quickConfig()
		cfg.DecisionOverheadS = overhead
		// Pin the agent to a deterministic trajectory so only the overhead
		// differs.
		cfg.Agent.Seed = 7
		c, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		for !p.Done() && p.Now() < 10000 {
			p.Step()
			c.Tick()
		}
		return p.Now()
	}
	if cheap, costly := run(0), run(1.0); costly <= cheap {
		t.Errorf("decision overhead should slow the run: %g vs %g", costly, cheap)
	}
}

func TestControllerSaveLoadState(t *testing.T) {
	cfg := quickConfig()
	c1, p1 := controllerFixture(t, cfg)
	for p1.Now() < 30 {
		p1.Step()
		c1.Tick()
	}
	var buf bytes.Buffer
	if err := c1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh controller resumes with the trained tables and alpha.
	c2, _ := controllerFixture(t, cfg)
	if err := c2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if c2.Agent().Alpha() != c1.Agent().Alpha() {
		t.Error("alpha not restored")
	}
	if c2.Agent().Epochs() != c1.Agent().Epochs() {
		t.Error("epoch count not restored")
	}
}

func TestPolicyTable(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	for p.Now() < 20 {
		p.Step()
		c.Tick()
	}
	out := c.PolicyTable()
	if !strings.Contains(out, "policy after") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "(visited)") {
		t.Error("no state marked visited after 20 s of operation")
	}
	// Every state appears.
	if got := strings.Count(out, "state "); got < cfg.States.NumStates() {
		t.Errorf("policy table lists %d states, want %d", got, cfg.States.NumStates())
	}
}

func TestAdaptiveSamplingRetunes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveSampling = true
	cfg.SamplingIntervalS = 1 // start fine: tachyon's smooth profile is
	cfg.EpochSamples = 30     // highly autocorrelated at 1 s -> widen
	app := workload.Tachyon(workload.Set2)
	p := platform.New(platform.DefaultConfig(), app)
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	hist := recordEpochs(c)
	for !p.Done() && p.Now() < 400 {
		p.Step()
		c.Tick()
	}
	if c.SamplingInterval() > cfg.AdaptiveMaxS || c.SamplingInterval() < cfg.AdaptiveMinS {
		t.Errorf("interval %g escaped [%g, %g]", c.SamplingInterval(), cfg.AdaptiveMinS, cfg.AdaptiveMaxS)
	}
	// The records carry the interval used per epoch, and the controller must
	// have widened it at least once (1 s sampling of tachyon's smooth
	// profile is redundant).
	h := *hist
	if len(h) == 0 || h[0].SamplingS != 1 {
		t.Error("first epoch should record the initial interval")
	}
	widened := false
	for _, rec := range h {
		if rec.SamplingS > 1 {
			widened = true
		}
	}
	if !widened {
		t.Error("adaptive sampling never widened the interval")
	}
}

func TestAdaptiveSamplingOffByDefault(t *testing.T) {
	cfg := quickConfig()
	c, p := controllerFixture(t, cfg)
	for p.Now() < 30 {
		p.Step()
		c.Tick()
	}
	if c.SamplingInterval() != cfg.SamplingIntervalS {
		t.Error("interval changed without AdaptiveSampling")
	}
}

// Fuzz-style robustness: the controller must drive randomly shaped
// workloads to completion without panicking, for any bounded spec.
func TestControllerRandomWorkloads(t *testing.T) {
	f := func(burst, sync, act uint8, imb, jit uint8, threads uint8) bool {
		sp := workload.Spec{
			Name:            "fuzz",
			NumThreads:      int(threads%8) + 1,
			Iterations:      6,
			BurstWork:       0.5 + float64(burst)/32,
			BurstActivity:   0.1 + 0.9*float64(act)/255,
			SyncWork:        float64(sync) / 64,
			SyncActivity:    0.05,
			Jitter:          0.5 * float64(jit) / 255,
			ThreadImbalance: 0.85 * float64(imb) / 255,
			PerfConstraint:  5,
			Seed:            int64(burst)<<8 | int64(sync),
		}
		app := sp.Generate()
		p := platform.New(platform.DefaultConfig(), app)
		cfg := quickConfig()
		c, err := New(cfg, p)
		if err != nil {
			return false
		}
		for !p.Done() {
			if p.Now() > 5000 {
				return false // stuck
			}
			p.Step()
			c.Tick()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
