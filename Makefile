GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet test race recover-test cluster-test cluster-obs-test tournament-test learning-test fuzz-smoke bench bench-smoke bench-compare bench-compare-smoke bench-dispatch-gate bench-distilled-gate bench-learning-gate ci

# Committed benchmark baseline that bench-compare diffs against.
BENCH_BASELINE ?= BENCH_pr4.json
# Where `make bench` writes its machine-readable summary.
BENCH_OUT ?= BENCH_pr12.json

all: ci

build:
	$(GO) build ./...

# gofmt -l prints offending files; a non-empty list fails the target.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The job subsystem is concurrent; the race detector is part of tier-1.
race:
	$(GO) test -race ./...

# Multi-node suite under the race detector: sharded dispatch, lease expiry
# and reassignment, heartbeat failure detection, kill-mid-job bit-identity,
# and saturation backpressure through the public API.
cluster-test:
	$(GO) test -race ./internal/cluster

# Observability-plane suite under the race detector: the in-process
# coordinator + multi-worker harness asserting cross-node span-batch merge
# (one trace, correct parent/child linkage), federated per-worker metrics on
# /metrics, the cluster status/live surfaces, drain-flush accounting, and the
# cluster flight-recorder storm triggers.
cluster-obs-test:
	$(GO) test -race -run 'TestClusterMergedTrace|TestFederatedMetrics|TestClusterStatus|TestClusterLive|TestWorkerDrainFlushesSpans|TestWorkerKillDiscardsSpans|TestClusterRecorder|TestHeartbeatClockOffset' ./internal/cluster

# Crash-recovery suite under the race detector: WAL torn-tail truncation at
# every byte offset, kill-and-restart resume, checkpoint warm starts.
recover-test:
	$(GO) test -race -run 'TestWAL|TestJournal|TestCheckpoint|TestRecovery|TestCrashRestart|TestJournaled|TestWarmStart' ./internal/durable ./internal/service

# Tournament suite under the race detector: campaign-spec golden errors,
# two-run and standalone-vs-sharded leaderboard bit-identity, the full
# POST /v1/campaigns → leaderboard HTTP flow, and journal recovery of
# finished tournaments.
tournament-test:
	$(GO) test -race -run 'TestTournament|TestParseSpec|TestPlanExpansion|TestLeaderboard|TestApplyWarmPayload' ./internal/campaign ./internal/service ./internal/cluster

# Learning-observability suite under the race detector: sampler convergence
# edge cases and the disabled-path zero-alloc guarantee, the
# sampling-is-observation-only bit-identity checks at the sim layer, the
# leaderboard tie-break, the /v1/jobs/{id}/learning HTTP flow on fig45, and
# the durable curve archive.
learning-test:
	$(GO) test -race -run 'TestLearning|TestCurve|TestLeaderboardTieBreak' ./internal/rl ./internal/sim ./internal/campaign ./internal/service ./internal/durable

# Fuzz smoke: a bounded run of FuzzParseSpec (the decoder of the untrusted
# POST /v1/campaigns body) on top of its committed seed corpus under
# testdata/fuzz/. A crasher is written into that corpus, where plain
# `go test` replays it from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/campaign

# Full benchmark sweep (quick-mode experiment regeneration plus the
# micro-benchmarks of every package). The human-readable benchstat text is
# archived under results/ so runs are comparable across commits, and the same
# run is distilled into $(BENCH_OUT) (name -> ns/op, B/op, allocs/op, custom
# b.ReportMetric units, plus each benchmark's ns/op delta against
# $(BENCH_BASELINE)) at the repo root for machine consumption. Override both
# variables to produce a new PR's summary against the previous one.
# -report-only: the sweep records overhead, it is not a gate —
# bench-dispatch-gate is.
bench:
	@mkdir -p results
	$(GO) test -bench . -benchmem -count=1 -run '^$$' ./... | tee results/bench.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -report-only -o $(BENCH_OUT) results/bench.txt

# Benchmark smoke: every benchmark compiles and survives one iteration.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > /dev/null

# Regression gate: rerun the figure-campaign benchmarks on HEAD and diff them
# against the committed baseline; >20% ns/op or allocs/op regression fails.
bench-compare:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig' -benchmem -count=1 -run '^$$' . | tee results/bench-compare.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) results/bench-compare.txt

# Smoke form of the gate for ci: only the two headline campaigns, two
# iterations each. HEAD sits far below the committed baseline, so even the
# extra timing noise of a short run stays inside the threshold; allocs/op is
# deterministic either way.
bench-compare-smoke:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig[13]$$' -benchmem -benchtime 2x -run '^$$' . | tee results/bench-compare-smoke.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) results/bench-compare-smoke.txt

# Span-propagation overhead gate: PR 7 threads trace context through every
# dispatch round trip, so BenchmarkClusterDispatch must stay within 5% ns/op
# of the pre-tracing PR 6 baseline (the recorded delta lands in BENCH_pr7.json
# via `make bench`). -gate-ns: the span batch on the completion payload
# legitimately allocates — allocs/op is reported, latency gates. Not part of
# ci: a 5% wall-clock gate against a baseline recorded in a different run is
# only meaningful on a quiet machine.
bench-dispatch-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkClusterDispatch$$' -benchmem -count=1 -run '^$$' ./internal/cluster | tee results/bench-dispatch.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkClusterDispatch' -threshold 0.05 -gate-ns -compare BENCH_pr6.json results/bench-dispatch.txt

# Distillation payoff gate: the distilled policy's decision epoch must stay
# within 50% ns/op of the committed PR 8 baseline (~3ns — a table lookup;
# the Q-table learners sit ~50x above it). Like bench-dispatch-gate, a
# wall-clock gate belongs on a quiet machine, not in ci.
bench-distilled-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkDecisionEpoch$$' -benchmem -count=1 -run '^$$' ./internal/policy | tee results/bench-distilled.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkDecisionEpoch/distilled' -threshold 0.50 -gate-ns -compare BENCH_pr8.json results/bench-distilled.txt

# Disabled-sampler overhead gate: learning-curve sampling rides the nil
# receiver when no observer is armed, so BenchmarkFig1 (which never arms one)
# must stay within 2% ns/op of the pre-sampling PR 8 baseline. Like
# bench-dispatch-gate, a tight wall-clock gate against a baseline recorded in
# a different run belongs on a quiet machine, not in ci.
bench-learning-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig1$$' -benchmem -count=1 -run '^$$' . | tee results/bench-learning.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkFig1' -threshold 0.02 -gate-ns -compare BENCH_pr8.json results/bench-learning.txt

ci: build fmt-check vet race cluster-test cluster-obs-test tournament-test learning-test fuzz-smoke bench-smoke bench-compare-smoke
