// Command hisvsimd serves the HiSVSIM simulation service over HTTP/JSON:
// an async job queue with a bounded worker pool in front of the fused
// hierarchical/distributed executors, plus a content-addressed plan/state
// cache so repeat circuits cost sampling, not simulation.
//
// Usage:
//
//	hisvsimd -addr :8080 -workers 4 -cache-mb 256
//
// Endpoints (see internal/service.NewHandler):
//
//	POST   /v1/jobs              submit  → {"id": "j000001", ...}
//	GET    /v1/jobs/{id}         poll
//	GET    /v1/jobs/{id}/result  long-poll result (?wait=30s)
//	GET    /v1/jobs/{id}/trace   per-stage timing trace
//	GET    /v1/jobs/{id}/profile kernel-level execution profile
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/backends          registered execution backends
//	GET    /v1/stats             counters
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 once drain begins)
//
// The v2 surface is kind "run": one "readouts" spec asks for any mix of
// statevector, seeded shots, marginal distributions and weighted
// Pauli-string observables, and one cached simulation answers all of them;
// "options.backend" picks the execution engine. Example:
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "circuit": {"family": "qft", "qubits": 18},
//	  "kind": "run",
//	  "readouts": {
//	    "shots": 1000, "seed": 7,
//	    "marginals": [[0, 1]],
//	    "observables": [{"paulis": "ZZ", "qubits": [0, 1]},
//	                    {"coeff": 0.5, "paulis": "X", "qubits": [2]}]
//	  },
//	  "options": {"strategy": "dagp"}
//	}'
//
// Kinds "sweep" and "optimize" evaluate parameterized templates; any other
// kind (including the v1 statevector/sample/expectation/probabilities and
// noisy_* kinds, removed in 1.0.0) is a 400.
//
// Noisy trajectory ensembles ride the same queue (kind "run" plus a
// "noise" spec); channel probabilities, readout
// rates and trajectory counts are bounds-checked at submit and rejected
// with 400s. Compiled trajectory plans cache in their own small LRU
// (-plan-cache-mb) so statevector entries cannot evict them.
//
// Observability: GET /metrics exposes the service and HTTP metric series
// in Prometheus text format; every request gets an X-Request-ID (incoming
// ones are honored) that also tags the job's structured log lines
// (-log-level, -log-json); an incoming X-Parent-Span (set by a cluster
// coordinator on fan-out sub-jobs) lands on the job record, its log lines
// and its trace/profile bodies; -debug-addr serves net/http/pprof on a
// separate, opt-in listener so profiling is never exposed on the API port.
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503 first (so load
// balancers stop routing), the listener stops, in-flight HTTP requests get
// -grace seconds to finish, then the service cancels outstanding jobs and
// the worker pool exits. /healthz stays 200 throughout the drain.
//
// Cluster mode: -coordinator turns the process into a multi-node
// coordinator instead of a single-node service. -workers then takes a
// comma-separated URL list (or -workers-file a JSON file reloaded
// periodically), and the same /v1/jobs surface routes whole jobs to the
// consistent-hash ring owner of the circuit fingerprint, splits large
// ensembles/sweeps into sub-jobs across the fleet, merges results
// bit-identically, and retries sub-jobs lost to dead workers:
//
//	hisvsimd -coordinator -addr :8080 \
//	    -workers http://n1:8081,http://n2:8081,http://n3:8081
//
// Cluster observability spans the fleet: every sub-job dispatch forwards
// the job's X-Request-ID and a per-attempt X-Parent-Span, the
// coordinator's GET /v1/jobs/{id}/trace nests each worker's stage trace
// under the attempt that ran it (one tree from client submit down to
// queue_wait/compile/execute on each worker), GET /v1/jobs/{id}/profile
// merges the workers' kernel profiles into one cluster-wide attribution,
// and GET /metrics/federate scrapes every live worker's /metrics on
// demand, re-exposing all series with a worker label plus cluster rollup
// gauges (cache hit rate, total queue depth, per-worker probe health).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hisvsim/internal/cluster"
	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.String("workers", "0", "worker pool size, 0 = GOMAXPROCS; with -coordinator, a comma-separated list of worker URLs")
		queue     = flag.Int("queue", 256, "max queued jobs before 429s")
		cacheMB   = flag.Int64("cache-mb", 256, "plan/state cache budget in MiB (0 or negative disables)")
		planMB    = flag.Int64("plan-cache-mb", 16, "compiled trajectory-plan cache budget in MiB (0 or negative disables)")
		maxQ      = flag.Int("max-qubits", 26, "largest accepted register")
		maxS      = flag.Int("max-shots", 1_000_000, "largest accepted shot count")
		maxT      = flag.Int("max-trajectories", 4096, "largest accepted noisy-ensemble size")
		retain    = flag.Int("retain", 4096, "terminal jobs kept pollable")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr = flag.String("debug-addr", "", "optional listen address serving /debug/pprof/ (empty = disabled)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator fronting -workers / -workers-file")
		workersFile = flag.String("workers-file", "", "JSON file {\"workers\": [\"url\", ...]} reloaded periodically (coordinator mode)")
		splitTraj   = flag.Int("split-trajectories", 128, "minimum ensemble size the coordinator fans out (coordinator mode)")
		splitSweep  = flag.Int("split-sweep-points", 8, "minimum sweep grid the coordinator fans out (coordinator mode)")
		maxSubJobs  = flag.Int("max-subjobs", 8, "fan-out width cap per job (coordinator mode)")
		healthEvery = flag.Duration("health-every", 2*time.Second, "worker /readyz probe interval (coordinator mode)")
	)
	flag.Parse()

	logger, err := obs.NewLoggerFromFlags(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *coordinator {
		runCoordinator(logger, coordConfig{
			addr: *addr, workers: *workers, workersFile: *workersFile,
			splitTraj: *splitTraj, splitSweep: *splitSweep,
			maxSubJobs: *maxSubJobs, healthEvery: *healthEvery,
			grace: *grace,
		})
		return
	}

	poolSize, err := strconv.Atoi(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-workers %q: need an integer pool size (URL lists require -coordinator)\n", *workers)
		os.Exit(2)
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // 0 would select the service default; the flag promises "disables"
	}
	planBytes := *planMB << 20
	if *planMB <= 0 {
		planBytes = -1
	}
	svc := service.New(service.Config{
		Workers: poolSize, QueueDepth: *queue,
		CacheBytes: cacheBytes, PlanCacheBytes: planBytes,
		MaxQubits: *maxQ, MaxShots: *maxS, MaxTrajectories: *maxT,
		RetainJobs: *retain,
		Logger:     logger,
	})
	// The HTTP wrapper reports into the service's registry, so one
	// GET /metrics scrape covers jobs, caches, queue and HTTP alike.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           obs.InstrumentHTTP(svc.Metrics(), "hisvsim_", logger, service.NewHandler(svc)),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof mounts on its own mux and listener — never the API port —
		// so exposing profiling is an explicit deployment decision.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if derr := dsrv.ListenAndServe(); derr != nil && !errors.Is(derr, http.ErrServerClosed) {
				logger.Error("debug serve", "err", derr)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("hisvsimd listening", "addr", *addr,
		"workers", svc.Stats().Workers, "cache_mb", *cacheMB)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		// Flip readiness before touching the listener: a load balancer
		// polling /readyz sees the 503 while the API still answers, instead
		// of discovering the drain through connection errors.
		svc.BeginDrain()
		logger.Info("draining", "signal", sig.String(), "grace", grace.String())
	case err := <-errc:
		svc.Close()
		logger.Error("serve", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "err", err)
	}
	svc.Close()
	st := svc.Stats()
	logger.Info("bye", "jobs_done", st.Completed,
		"simulations", st.Simulations, "cache_hits", st.CacheHits)
}

// coordConfig is the flag subset coordinator mode consumes.
type coordConfig struct {
	addr        string
	workers     string
	workersFile string
	splitTraj   int
	splitSweep  int
	maxSubJobs  int
	healthEvery time.Duration
	grace       time.Duration
}

// runCoordinator serves the cluster coordinator: same listen/drain
// lifecycle as the single-node service, but jobs fan out to the worker
// fleet instead of a local pool.
func runCoordinator(logger *slog.Logger, cfg coordConfig) {
	var urls []string
	for _, u := range strings.Split(cfg.workers, ",") {
		u = strings.TrimSpace(u)
		// "0" is the -workers default (a pool size, meaningless here).
		if u != "" && u != "0" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	coord, err := cluster.New(cluster.Config{
		Workers: urls, WorkersFile: cfg.workersFile,
		SplitTrajectories: cfg.splitTraj, SplitSweepPoints: cfg.splitSweep,
		MaxSubJobs: cfg.maxSubJobs, HealthEvery: cfg.healthEvery,
		Logger: logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           obs.InstrumentHTTP(coord.Metrics(), "hisvsim_", logger, cluster.NewHandler(coord)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("hisvsimd coordinator listening", "addr", cfg.addr,
		"workers", len(urls), "workers_file", cfg.workersFile)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		coord.BeginDrain()
		logger.Info("coordinator draining", "signal", sig.String(), "grace", cfg.grace.String())
	case err := <-errc:
		coord.Close()
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "err", err)
	}
	coord.Close()
	logger.Info("bye")
}
