// Design-parameter sweep: how the temperature sampling interval and the
// decision epoch affect the controller, reproducing the trade-offs behind
// the paper's Figs. 6 and 7 through the public experiment harness.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.Quick = true // keep the example snappy; drop for the full sweeps

	fmt.Println("--- temperature sampling interval (Fig. 6) ---")
	fig6, err := experiments.RunRows(cfg, "fig6")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range fig6.([]experiments.Fig6Row) {
		fmt.Printf("interval %2.0f s: computed cycling MTTF %5.2f y, autocorrelation %.3f, %5.1fM cache misses\n",
			r.SamplingIntervalS, r.ComputedMTTF, r.Autocorrelation, float64(r.CacheMisses)/1e6)
	}
	fmt.Println("\ncoarse sampling over-estimates lifetime (cycles aliased away) but costs less monitoring;")
	fmt.Println("the paper picks 3 s as the sweet spot.")

	fmt.Println("\n--- decision epoch (Fig. 7) ---")
	fig7, err := experiments.RunRows(cfg, "fig7")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range fig7.([]experiments.Fig7Row) {
		fmt.Printf("%s, epoch %2.0f s: exec time %.2fx linux, energy %.2fx, learning time %4.0f s\n",
			r.App, r.EpochS, r.NormExecTime, r.NormEnergy, r.LearningTimeS)
	}
	fmt.Println("\nshort epochs adapt (and pay overhead) often; long epochs stretch the training time.")
}
