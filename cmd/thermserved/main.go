// Command thermserved serves the simulation-job subsystem over HTTP: submit
// experiment campaigns, watch their progress, and fetch their rows while a
// bounded worker pool fans the cells out across all cores.
//
// Usage:
//
//	thermserved [-role standalone|coordinator|worker]
//	            [-addr :8080] [-workers N] [-ttl 1h] [-data-dir DIR]
//	            [-flight-dir DIR] [-temp-ceiling C] [-stall-deadline 5m]
//	            [-log-level info] [-debug-addr :6060]
//	            [-max-queue-cells N] [-lease-ttl 10m] [-heartbeat-every 2s]
//	            [-join URL] [-advertise URL] [-capacity N] [-cluster-secret S]
//
// Endpoints:
//
//	POST   /v1/jobs             {"experiment":"suite","quick":true,"seed":7}
//	POST   /v1/campaigns        tournament document (experiments.json) as body
//	GET    /v1/jobs             list live jobs
//	GET    /v1/jobs/{id}        status + progress
//	GET    /v1/jobs/{id}/result rows as JSON
//	GET    /v1/jobs/{id}/leaderboard tournament ranking (?format=csv)
//	GET    /v1/jobs/{id}/events RL decision trace as JSONL
//	GET    /v1/jobs/{id}/live   SSE stream of decision epochs while running
//	GET    /v1/jobs/{id}/trace  span trace (?format=chrome for Perfetto, jsonl)
//	GET    /v1/jobs/{id}/learning learning-curve summaries (?format=jsonl for
//	                            the full per-epoch curves)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/checkpoints      policy checkpoints (POST/GET/DELETE .../{name})
//	GET    /v1/cluster/status   cluster membership/lease/throughput snapshot (coordinator)
//	GET    /v1/cluster/live     SSE stream of status + cluster events (coordinator)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition (on a coordinator,
//	                            including every worker's federated series)
//
// -data-dir makes the job store crash-safe: every lifecycle transition is
// committed to a WAL under DIR/jobs before it is acknowledged, snapshots
// bound the WAL, and on startup the journal is replayed — finished jobs
// become queryable again and interrupted ones resume where their last
// committed cell left off. DIR/checkpoints stores named Q-table checkpoints
// for warm_start submissions. An empty -data-dir (the default) keeps the
// store purely in memory.
//
// With a data dir every finished job's span trace is also archived under
// DIR/traces (newest -trace-keep retained), so /trace keeps answering after
// the job is evicted from memory — and its sampled learning curves under
// DIR/learning (same retention), so /learning does too.
//
// -flight-dir arms the anomaly flight recorder: thermal samples above
// -temp-ceiling, NaN/Inf temperatures or metrics, and jobs making no
// progress for -stall-deadline each dump the last spans and decision events
// to DIR/flightrec-<job>.json and bump the flightrec_alerts_total counter.
// On a coordinator the same directory receives DIR/flightrec-cluster.json
// when a lease-reassignment storm or heartbeat-loss burst trips the cluster
// black box.
//
// -debug-addr mounts net/http/pprof on a separate listener (never on the
// public address); worker goroutines carry pprof labels (job, cell), so
// /debug/pprof/goroutine?debug=1 attributes stacks to the cell being run.
// -log-level debug additionally logs every RL decision epoch and every HTTP
// request.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests drain, the pool cancels and finalizes running jobs, and with
// -data-dir the journal is compacted and closed so the next boot replays a
// snapshot instead of the raw WAL.
//
// -role selects the node's place in a cluster (see internal/cluster and the
// README's "Cluster mode" section):
//
//   - standalone (default): everything above, cells run in-process.
//   - coordinator: same public API and durability, but cells are sharded
//     across registered workers by consistent hashing, under time-bounded
//     leases, with /cluster/v1/* mounted for worker traffic. -lease-ttl and
//     -heartbeat-every tune failure detection. -workers here sizes the
//     dispatch width (cluster-wide in-flight cell cap), not local execution;
//     0 defaults to a generous 256 rather than NumCPU.
//   - worker: no public job API; the node registers with the coordinator at
//     -join, advertises itself at -advertise (default http://127.0.0.1<addr>
//     when -addr has no host), heartbeats, and executes up to -capacity
//     assigned cells concurrently.
//
// -cluster-secret, when set on the coordinator and every worker, gates all
// /cluster/v1/* routes (both directions) behind a shared bearer token, so a
// coordinator reachable from untrusted networks cannot be fed bogus worker
// registrations.
//
// -max-queue-cells bounds the standalone/coordinator admission queue: while
// more cells than that are queued or running, POST /v1/jobs returns 429 with
// a Retry-After estimate instead of accepting unbounded work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	role := flag.String("role", "standalone", "node role: standalone, coordinator or worker")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "pool worker count (0 = number of CPUs; in -role=coordinator, 0 = 256 dispatchers)")
	ttl := flag.Duration("ttl", service.DefaultTTL, "how long finished jobs stay queryable")
	dataDir := flag.String("data-dir", "", "directory for the durable job journal and checkpoints (empty = in-memory only)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	flightDir := flag.String("flight-dir", "", "directory for anomaly flight-recorder dumps (empty = recorder disabled)")
	tempCeiling := flag.Float64("temp-ceiling", 0, "core temperature (C) above which a run trips a thermal-runaway alert (0 = ceiling check disabled)")
	stallDeadline := flag.Duration("stall-deadline", service.DefaultStallDeadline, "no-progress window after which a running job trips a stall alert")
	traceKeep := flag.Int("trace-keep", durable.DefaultTraceKeep, "archived span traces retained under the data dir")
	maxQueueCells := flag.Int("max-queue-cells", 0, "admission limit: queued+running cells above which POST /v1/jobs returns 429 (0 = unlimited)")
	leaseTTL := flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "coordinator: how long a worker holds a cell before it is reassigned")
	heartbeatEvery := flag.Duration("heartbeat-every", cluster.DefaultHeartbeatEvery, "coordinator: worker heartbeat period (a worker silent for 5x this is declared dead)")
	clusterSecret := flag.String("cluster-secret", "", "shared secret gating /cluster/v1/* (set on coordinator and every worker; empty = no auth)")
	join := flag.String("join", "", "worker: coordinator base URL to register with")
	advertise := flag.String("advertise", "", "worker: URL the coordinator reaches this node at (default http://127.0.0.1<addr> when -addr has no host)")
	capacity := flag.Int("capacity", 0, "worker: max concurrently assigned cells (0 = number of CPUs)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-role standalone|coordinator|worker] [-addr :8080] [-workers N] [-ttl 1h] [-data-dir DIR] [-flight-dir DIR] [-temp-ceiling C] [-stall-deadline 5m] [-log-level info] [-debug-addr :6060] [-max-queue-cells N] [-lease-ttl 10m] [-heartbeat-every 2s] [-join URL] [-advertise URL] [-capacity N] [-cluster-secret S]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermserved:", err)
		os.Exit(2)
	}
	slog.SetDefault(telemetry.NewLogger(os.Stderr, level))
	log := telemetry.Component("thermserved")

	// Lint the metrics exposition once at boot: every registered family must
	// render Prometheus 0.0.4-conformant text (cumulative buckets, +Inf ==
	// _count, _sum/_count present). A malformed family is a bug worth dying
	// for before a scraper quietly drops the page.
	if err := telemetry.SelfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "thermserved: metrics self-test:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		runWorker(ctx, log, *addr, *join, *advertise, *clusterSecret, *capacity)
		return
	default:
		fmt.Fprintf(os.Stderr, "thermserved: unknown -role %q (want standalone, coordinator or worker)\n", *role)
		os.Exit(2)
	}

	poolWorkers := *workers
	if *role == "coordinator" && poolWorkers <= 0 {
		// A coordinator pool worker is a dispatcher parked in RunCell while
		// its cell executes remotely, so the pool size caps cluster-wide
		// in-flight cells. Defaulting it to NumCPU would throttle the whole
		// fleet to this one machine's core count; default to a width sized
		// for many workers' aggregate capacity instead. -workers still
		// overrides.
		poolWorkers = cluster.DefaultDispatchWidth
	}
	store := service.NewStore(*ttl)
	pool := service.NewPool(store, poolWorkers)
	if *maxQueueCells > 0 {
		pool.SetMaxQueuedCells(*maxQueueCells)
	}
	var coord *cluster.Coordinator
	if *role == "coordinator" {
		// -flight-dir doubles as the cluster black box: lease-reassignment
		// storms and heartbeat-loss bursts dump recent cluster events to
		// DIR/flightrec-cluster.json next to the per-job dumps.
		coord = cluster.NewCoordinator(pool, cluster.Config{
			LeaseTTL:       *leaseTTL,
			HeartbeatEvery: *heartbeatEvery,
			Secret:         *clusterSecret,
			FlightDir:      *flightDir,
		})
	}

	// Arm the flight recorder before any job can run — including the ones the
	// journal recovery below re-enqueues.
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "thermserved:", err)
			os.Exit(1)
		}
		pool.EnableFlightRecorder(*flightDir, *tempCeiling, *stallDeadline)
		log.Info("flight recorder armed", "dir", *flightDir, "temp_ceiling_c", *tempCeiling, "stall_deadline", *stallDeadline)
	}

	// With a data dir, attach the journal and checkpoint store and replay
	// whatever the last process left behind — before the listener opens, so
	// no client ever observes the pre-recovery state.
	var journal *durable.Journal
	if *dataDir != "" {
		journal, err = durable.OpenJournal(filepath.Join(*dataDir, "jobs"), durable.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermserved:", err)
			os.Exit(1)
		}
		checkpoints, err := durable.OpenCheckpoints(filepath.Join(*dataDir, "checkpoints"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermserved:", err)
			os.Exit(1)
		}
		traces, err := durable.OpenTraces(filepath.Join(*dataDir, "traces"), *traceKeep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermserved:", err)
			os.Exit(1)
		}
		learning, err := durable.OpenLearning(filepath.Join(*dataDir, "learning"), *traceKeep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermserved:", err)
			os.Exit(1)
		}
		store.SetJournal(journal)
		pool.SetCheckpoints(checkpoints)
		pool.SetTraceStore(traces)
		pool.SetLearningStore(learning)
		restored, resumed := pool.Recover(journal.Recovered())
		log.Info("durable store attached", "data_dir", *dataDir, "restored_jobs", restored, "resumed_jobs", resumed)
	}
	if coord != nil {
		// The sweeper must run before the pool starts: recovered jobs begin
		// dispatching immediately and block until workers register.
		coord.Start()
		log.Info("coordinating", "lease_ttl", *leaseTTL, "heartbeat_every", *heartbeatEvery)
	}
	pool.Start()

	if *debugAddr != "" {
		// http.DefaultServeMux carries the pprof handlers registered by the
		// blank import; nothing else is ever registered on it here.
		go func() {
			log.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Periodic eviction keeps memory bounded even when nobody polls.
	go func() {
		tick := time.NewTicker(*ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if n := store.Sweep(); n > 0 {
					log.Info("evicted finished jobs", "count", n)
				}
			}
		}
	}()

	// Periodic compaction bounds WAL growth (and with it, restart replay
	// time) while the server runs.
	if journal != nil {
		go func() {
			tick := time.NewTicker(time.Minute)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := journal.CompactIfLarger(0); err != nil {
						log.Error("journal compaction failed", "err", err)
					}
				}
			}
		}()
	}

	apiServer := service.NewServer(store, pool)
	var handler http.Handler = apiServer
	if coord != nil {
		// One scrape of the coordinator's /metrics sees the whole fleet: the
		// server's own exposition plus every worker's federated series.
		apiServer.AppendMetrics(coord.WriteFederatedMetrics)
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", coord.Handler())
		mux.Handle("GET /v1/cluster/status", coord.StatusHandler())
		mux.Handle("GET /v1/cluster/live", coord.StatusHandler())
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", pool.Workers())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		pool.Stop()
		log.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	pool.Stop()
	if coord != nil {
		coord.Stop()
	}
	if journal != nil {
		// The pool has finalized every job, so compacting now folds those
		// terminal states into the snapshot and the next boot replays an
		// empty WAL.
		if err := journal.Compact(); err != nil {
			log.Error("final journal compaction failed", "err", err)
		}
		if err := journal.Close(); err != nil {
			log.Error("journal close failed", "err", err)
		}
	}
}

// runWorker is the -role=worker main loop: serve /cluster/v1/assign plus
// /healthz and /metrics on addr, register with the coordinator at join, and
// heartbeat until the process is signalled.
func runWorker(ctx context.Context, log *slog.Logger, addr, join, advertise, secret string, capacity int) {
	if join == "" {
		fmt.Fprintln(os.Stderr, "thermserved: -role=worker requires -join <coordinator URL>")
		os.Exit(2)
	}
	if advertise == "" {
		// A bare ":8081" listen address means "any interface"; the only
		// self-URL derivable from that is loopback, which is right for
		// single-host clusters. Multi-host setups must pass -advertise.
		if len(addr) == 0 || addr[0] != ':' {
			fmt.Fprintln(os.Stderr, "thermserved: -role=worker requires -advertise when -addr has an explicit host")
			os.Exit(2)
		}
		advertise = "http://127.0.0.1" + addr
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		ID:             fmt.Sprintf("%s-%d", host, os.Getpid()),
		CoordinatorURL: join,
		AdvertiseURL:   advertise,
		Capacity:       capacity,
		Secret:         secret,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermserved:", err)
		os.Exit(2)
	}

	srv := &http.Server{Addr: addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Info("worker listening", "addr", addr, "advertise", advertise, "coordinator", join)
		errc <- srv.ListenAndServe()
	}()
	if err := w.Start(ctx); err != nil {
		log.Error("worker start failed", "err", err)
		os.Exit(1)
	}

	select {
	case err := <-errc:
		w.Stop()
		log.Error("worker server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Info("worker shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	w.Stop()
}
