// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one named workload against the simulator and the job service
// through their public APIs, checks every output against a reference, and
// prints the metrics as one JSON object on the last line of standard output:
//
//	perfbench -workload paper-all -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the object carries the end-to-end metrics (wall and CPU time
// of one pass, simulated ticks per second, job latency, cell throughput, peak
// heap and set-up time). With -trace 1 it carries the per-layer metrics, taken
// from a separate traced run whose spans are recorded here, around the calls
// into each layer. A host line precedes the result so every figure can be
// traced to the machine and source tree it came from. Log output from the
// service is discarded so it can never split the machine-readable lines.
//
// run.sh builds this package from the checkout and forwards its flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries the command line into a workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// work is the scratch directory for the service's journal.
	work string
	// root is the checkout whose sources the host line digests.
	root string
	// reduced shrinks every workload's pass for the self-test.
	reduced bool
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input-generation seed")
	seconds := flag.Float64("seconds", 10, "measured duration of the run, seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	work := flag.String("work", os.TempDir(), "scratch directory for service journals")
	root := flag.String("root", ".", "source tree recorded in the host line")
	refsOut := flag.String("write-refs", "", "recompute the reference outputs into this file and exit")
	flag.Parse()

	slog.SetDefault(slog.New(discardHandler{}))
	if *refsOut != "" {
		if err := writeRefs(context.Background(), *refsOut); err != nil {
			fatal(err)
		}
		return
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, root: *root}
	host, err := json.Marshal(map[string]any{"host": hostInfo(opts.root)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(host))
	res, err := run(context.Background(), setup, opts)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// errLog receives diagnostics about failed operations; standard output
// carries only the host line and the result.
var errLog = os.Stderr

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// discardHandler drops every log record.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
