package service

import (
	"testing"
)

func TestStateTransitions(t *testing.T) {
	cases := []struct {
		from, to State
		ok       bool
	}{
		{StatePending, StateRunning, true},
		{StatePending, StateCancelled, true},
		{StatePending, StateDone, false},
		{StatePending, StateFailed, false},
		{StateRunning, StateDone, true},
		{StateRunning, StateFailed, true},
		{StateRunning, StateCancelled, true},
		{StateRunning, StatePending, false},
		{StateDone, StateRunning, false},
		{StateFailed, StateCancelled, false},
		{StateCancelled, StateRunning, false},
	}
	for _, c := range cases {
		if got := c.from.CanTransition(c.to); got != c.ok {
			t.Errorf("%s -> %s = %v, want %v", c.from, c.to, got, c.ok)
		}
	}
	for _, s := range []State{StateDone, StateFailed, StateCancelled} {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
	}
	for _, s := range []State{StatePending, StateRunning} {
		if s.Terminal() {
			t.Errorf("%s should not be terminal", s)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Experiment: "suite"}).Validate(); err != nil {
		t.Errorf("suite should validate: %v", err)
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty experiment should fail")
	}
	if err := (Spec{Experiment: "fig99"}).Validate(); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := (Spec{Experiment: "suite", Repeats: -1}).Validate(); err == nil {
		t.Error("negative repeats should fail")
	}
}

func TestDeriveSeed(t *testing.T) {
	// Deterministic: same inputs, same seed.
	if DeriveSeed(7, "suite") != DeriveSeed(7, "suite") {
		t.Error("derivation must be deterministic")
	}
	// Decorrelated across labels and bases, and never the zero sentinel.
	seen := map[int64]string{}
	for _, base := range []int64{1, 2, 7, 1 << 40} {
		for _, label := range []string{"suite", "table2", "seeds", "concurrent"} {
			s := DeriveSeed(base, label)
			if s == 0 {
				t.Fatalf("derived seed 0 for (%d, %s)", base, label)
			}
			key := string(rune(base)) + label
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: (%d,%s) and %s -> %d", base, label, prev, s)
			}
			seen[s] = key
		}
	}
}

func TestSpecConfigSeedDerivation(t *testing.T) {
	// Zero base seed keeps the package default (bit-identical to
	// experiments.RunRows); nonzero derives a per-experiment seed.
	if cfg := (Spec{Experiment: "suite"}).Config(); cfg.Seed != 0 {
		t.Errorf("zero base seed should not override: got %d", cfg.Seed)
	}
	a := (Spec{Experiment: "suite", Seed: 7}).Config()
	b := (Spec{Experiment: "table2", Seed: 7}).Config()
	if a.Seed == 0 || b.Seed == 0 {
		t.Fatal("nonzero base must derive a nonzero seed")
	}
	if a.Seed == b.Seed {
		t.Error("same base across experiments should decorrelate")
	}
	if a.Seed != (Spec{Experiment: "suite", Seed: 7}).Config().Seed {
		t.Error("resubmitting the same spec must reproduce the seed")
	}
	if !(Spec{Experiment: "suite", Quick: true}).Config().Quick {
		t.Error("quick flag lost in conversion")
	}
}
