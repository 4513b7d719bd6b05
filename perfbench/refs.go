package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
)

// refsJSON holds the reference outputs the benchmark checks against, taken
// from the code it was written for: for paper-all, a SHA-256 of each
// experiment's canonical JSON rows per RL agent seed; for manycore-32, a
// digest of each run's sim.Result scalars. A change that alters the
// experiments' output on purpose regenerates it with -write-refs.
//
//go:embed refs.json
var refsJSON []byte

type refs struct {
	Paper    map[string]map[string]string `json:"paper"`
	Manycore map[string]string            `json:"manycore"`
}

var references = func() refs {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: refs.json: %v", err))
	}
	return r
}()

// writeRefs recomputes every reference output and writes refs.json to path.
func writeRefs(ctx context.Context, path string) error {
	r := refs{Paper: map[string]map[string]string{}, Manycore: map[string]string{}}
	for _, seed := range paperSeeds {
		cfg := experiments.DefaultConfig()
		cfg.Seed = seed
		digests := map[string]string{}
		for _, id := range experiments.ExperimentNames() {
			d, err := experimentDigest(ctx, cfg, id)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", id, seed, err)
			}
			digests[id] = d
		}
		r.Paper[fmt.Sprint(seed)] = digests
	}
	s := &manycoreStack{}
	for _, app := range manycoreApps {
		runs := []manycoreRun{{app: app, policy: experiments.PolicyLinuxOndemand}}
		for _, seed := range manycoreSeeds {
			runs = append(runs, manycoreRun{app: app, policy: experiments.PolicyProposed, agentSeed: seed})
		}
		for _, run := range runs {
			res, err := s.runOne(run)
			if err != nil {
				return fmt.Errorf("%s: %w", run.key(), err)
			}
			r.Manycore[run.key()] = resultDigest(res)
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
