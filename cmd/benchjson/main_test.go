package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkRunTraceOff-8   \t     100\t  11022338 ns/op\t  131072 B/op\t      52 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if name != "BenchmarkRunTraceOff" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", name)
	}
	if r.NsPerOp != 11022338 {
		t.Errorf("ns/op = %g", r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 131072 {
		t.Errorf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 52 {
		t.Errorf("allocs/op = %v", r.AllocsPerOp)
	}
	if r.procs != 8 {
		t.Errorf("procs = %d, want 8 from the -8 suffix", r.procs)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	_, r, ok := parseBenchLine("BenchmarkCampaign/sweep-8 \t 14 \t 77000000 ns/op \t 851 sims/s \t 4096 B/op \t 12 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Metrics["sims/s"] != 851 {
		t.Errorf("metrics = %v, want sims/s=851", r.Metrics)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 4096 {
		t.Errorf("B/op = %v (custom metric must not displace memory stats)", r.BytesPerOp)
	}
}

func TestParseBenchLineNoBenchmem(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkStep-16 \t 504 \t 2230912 ns/op")
	if !ok || name != "BenchmarkStep" {
		t.Fatalf("parsed %q ok=%v", name, ok)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Error("memory stats invented for a non-benchmem line")
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro/internal/sim\t12.3s",
		"BenchmarkBroken-8", // no measurements
		"",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parsed noise line %q", line)
		}
	}
}

func TestParseBenchLineKeepsNonNumericSuffix(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkRun/trace-off 100 50 ns/op")
	if !ok || name != "BenchmarkRun/trace-off" {
		t.Errorf("name = %q ok=%v (non-GOMAXPROCS dash must survive)", name, ok)
	}
	if r.procs != 1 {
		t.Errorf("procs = %d, want 1 (go test omits the -1 suffix)", r.procs)
	}
}

func TestSummaryRecordsHost(t *testing.T) {
	text := "goos: linux\ngoarch: amd64\npkg: repro\ncpu: Test CPU @ 2.10GHz\n" +
		"BenchmarkFig1-2 \t 19 \t 63433813 ns/op\n" +
		"BenchmarkRecover-2 \t 30 \t 40000000 ns/op\n"
	results, host, err := parse(strings.NewReader(text), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: 2, CPU: "Test CPU @ 2.10GHz", GoVersion: runtime.Version()}
	if host != want {
		t.Errorf("host = %+v, want %+v", host, want)
	}
	var buf bytes.Buffer
	writeSummary(&buf, results, host)
	var summary map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	var got hostInfo
	if err := json.Unmarshal(summary[hostKey], &got); err != nil || got != want {
		t.Errorf("summary host = %+v (%v), want %+v", got, err, want)
	}
	if len(summary) != 3 {
		t.Errorf("summary has %d keys, want 2 benchmarks + host", len(summary))
	}
	// A summary with a host object still works as a -compare baseline.
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if !compareBaseline(&report, path, results, 0.2, false) {
		t.Errorf("self-compare failed:\n%s", report.String())
	}
}
