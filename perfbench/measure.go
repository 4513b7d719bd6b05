package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Clock calibration, measured once per process: how many nanoseconds one
// cputicks unit lasts, and how many units an empty timed region reads, so
// the latter can be taken off every timed call.
var (
	calibrateOnce sync.Once
	nsPerTick     float64
	timerTicks    float64
)

func calibrate() {
	calibrateOnce.Do(func() {
		t0, c0 := time.Now(), cputicks()
		for time.Since(t0) < 20*time.Millisecond {
		}
		nsPerTick = float64(time.Since(t0).Nanoseconds()) / float64(cputicks()-c0)
		const n = 1 << 16
		var empty span
		for i := 0; i < n; i++ {
			empty.add(cputicks())
		}
		timerTicks = float64(empty.ticks) / n
	})
}

// span accumulates the calls into one layer boundary: how many there were
// and how long they took in total.
type span struct {
	ticks, calls int64
}

// add closes one call that began at start (a cputicks reading).
func (s *span) add(start int64) {
	s.ticks += cputicks() - start
	s.calls++
}

// totalNS is the time spent inside the calls, net of the timer's own cost.
func (s *span) totalNS() float64 {
	return math.Max(0, float64(s.ticks)-float64(s.calls)*timerTicks) * nsPerTick
}

// perCallNS is the mean net duration of one call.
func (s *span) perCallNS() float64 {
	if s.calls == 0 {
		return 0
	}
	return s.totalNS() / float64(s.calls)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler tracks the peak in-use heap while it runs. It reads the
// runtime/metrics equivalent of runtime.MemStats.HeapInuse (heap objects
// plus unused heap spans): runtime.ReadMemStats stops the world, and doing
// so every few milliseconds would stall every busy goroutine each time, the
// longer whenever the host has descheduled one of the CPUs.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	in   [2]metrics.Sample
	stop chan struct{}
	done chan struct{}
}

// startHeapSampler polls the in-use heap every few milliseconds until stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.in[0].Name = "/memory/classes/heap/objects:bytes"
	h.in[1].Name = "/memory/classes/heap/unused:bytes"
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	metrics.Read(h.in[:])
	if v := h.in[0].Value.Uint64() + h.in[1].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// quantile interpolates the q-th quantile (0..1) of values; 0 for none.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// mean is the arithmetic mean of values; 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// hostInfo identifies the machine and the source tree a result came from.
// The commit is the VCS revision stamped into the binary when it was built
// inside a git checkout; src_sha256 digests the Go sources and module files
// under root, which identifies the code in checkouts without history.
func hostInfo(root string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "-dirty"
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"src_sha256": sourceDigest(root),
	}
}

// sourceDigest hashes every .go and go.mod file under root in path order,
// skipping hidden directories (build output, VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
