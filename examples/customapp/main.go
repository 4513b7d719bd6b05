// Custom application: integrate your own workload with the thermal manager.
//
// The workload model is phase-structured: each thread alternates independent
// high-activity bursts with dependent (barrier-synchronized) low-activity
// phases. This example builds a "video-transcode"-like pipeline by hand,
// tunes the controller's action space, and runs it.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	// 1. Describe the application. Work is in giga-cycles; a thread running
	//    alone on a 3.4 GHz core completes 3.4 work units per second.
	spec := workload.Spec{
		Name:            "transcode",
		NumThreads:      6,
		Iterations:      150,
		BurstWork:       4.0,  // decode+encode burst per slice
		BurstActivity:   0.75, // switching activity during the burst
		SyncWork:        0.2,  // bitstream reassembly before the barrier
		SyncActivity:    0.15,
		Jitter:          0.25, // slice-size variation
		ThreadImbalance: 0.4,  // uneven slice split across worker threads
		PerfConstraint:  6.0,  // required throughput, giga-cycles/s
		Seed:            99,
	}

	// 2. Customize the controller: a compact 8-state space and an action
	//    space restricted to the two mappings that matter for this app.
	ctl := core.DefaultConfig()
	ctl.States = core.StateSpaceOfSize(8)
	ctl.Actions = core.BuildActions(
		[]core.Mapping{
			{Name: "os-default"}, // let the kernel balance
			{Name: "paired", Slots: []int{0, 1, 2, 3, 0, 1}},
		},
		[]core.GovernorChoice{
			{Kind: governor.Ondemand},
			{Kind: governor.Userspace, Level: 2}, // 2.4 GHz
			{Kind: governor.Powersave},
		},
	)
	ctl.Agent = rl.DefaultAgentConfig(ctl.States.NumStates(), len(ctl.Actions))

	// 3. Run under Linux and under the customized controller.
	linux, err := sim.Run(sim.DefaultRunConfig(), spec.Generate(), sim.LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		log.Fatal(err)
	}
	pol := &sim.ProposedPolicy{Config: &ctl}
	rc := sim.DefaultRunConfig()
	rc.Epochs = telemetry.NewEpochLog() // keep the controller's per-epoch records
	tuned, err := sim.Run(rc, spec.Generate(), pol)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("policy            avg T    cycling MTTF  aging MTTF  exec    dyn energy")
	for _, r := range []*sim.Result{linux, tuned} {
		fmt.Printf("%-16s %5.1f C  %9.2f y   %7.2f y  %5.0f s  %7.0f J\n",
			r.Policy, r.AvgTempC, r.CyclingMTTF, r.AgingMTTF, r.ExecTimeS, r.DynamicEnergyJ)
	}

	// 4. Inspect what the controller learned: the last action it settled on.
	hist := tuned.Epochs.Points
	if len(hist) > 0 {
		last := hist[len(hist)-1]
		fmt.Printf("\nfinal action: %s (after %d epochs, phase %v)\n",
			ctl.Actions[last.Action], len(hist), pol.Controller().Agent().Phase())
	}
}
