// Persistence: train the controller once, save its state (Q-tables, learned
// workload signature, adaptive sampling interval), and resume a later
// deployment from the saved state. The warm-started controller applies the
// learned operating points immediately (lower average power from the first
// epoch); when the resumed policy mismatches the still-cold chip, the
// workload-variation detector acts as a safety net and triggers a
// re-learn.
//
//	go run ./examples/persist
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

type outcome struct {
	state         *bytes.Buffer
	exploreEpochs int
	avgPowerW     float64
	peakTempC     float64
}

// run executes tachyon under a controller, optionally warm-started.
func run(saved *bytes.Buffer) outcome {
	app := workload.Tachyon(workload.Set1)
	p := platform.New(platform.DefaultConfig(), app)
	ctl, err := core.New(core.DefaultConfig(), p)
	if err != nil {
		log.Fatal(err)
	}
	if saved != nil {
		if err := ctl.LoadState(bytes.NewReader(saved.Bytes())); err != nil {
			log.Fatal(err)
		}
	}
	// Keep the per-epoch records to count the exploration epochs below.
	var epochs []telemetry.Epoch
	ctl.AttachEpochHook(rl.NewEpochHook(0, func(e telemetry.Epoch) { epochs = append(epochs, e) }))
	peak := 0.0
	for !p.Done() {
		p.Step()
		ctl.Tick()
		for _, t := range p.Temperatures() {
			if t > peak {
				peak = t
			}
		}
	}
	// Count the epochs this run spent exploring (alpha above the
	// exploration threshold).
	explore := 0
	for _, e := range epochs {
		if e.Alpha >= 0.55 {
			explore++
		}
	}
	var buf bytes.Buffer
	if err := ctl.SaveState(&buf); err != nil {
		log.Fatal(err)
	}
	return outcome{
		state:         &buf,
		exploreEpochs: explore,
		avgPowerW:     p.Meter().AverageDynamicPower(),
		peakTempC:     peak,
	}
}

func main() {
	fmt.Println("cold start: the controller explores before it can exploit")
	cold := run(nil)
	fmt.Printf("  epochs spent exploring: %d, avg dynamic power: %.1f W, peak: %.1f C\n",
		cold.exploreEpochs, cold.avgPowerW, cold.peakTempC)

	fmt.Println("\nwarm start: a second deployment resumes from the saved state")
	warm := run(cold.state)
	fmt.Printf("  epochs spent exploring: %d, avg dynamic power: %.1f W, peak: %.1f C\n",
		warm.exploreEpochs, warm.avgPowerW, warm.peakTempC)

	fmt.Printf("\nwarm start reuses the learned policy immediately (%.1f W vs %.1f W average power);\nthe variation detector re-learns if the resumed policy mismatches the cold chip.\n",
		warm.avgPowerW, cold.avgPowerW)
}
