// Command rrserved serves the paper's experiments over HTTP: a job
// queue and worker pool run sweeps on demand, and a content-addressed
// result store — sound because the engine is byte-identical for a
// given (experiment, seed, scale, grids) — keeps finished reports and
// their sweep points, so repeated and overlapping submissions are
// answered without re-simulating.
//
// Usage:
//
//	rrserved -addr 127.0.0.1:8347 -queue 64 -workers 2
//	rrserved -point-cache-dir /var/cache/rrserved -point-cache-bytes 33554432
//
// Cluster mode (see docs/cluster.md): -role worker additionally serves
// the shard compute API at /v1/cluster/compute; -role coordinator
// fans sweep points out to -cluster-workers by rendezvous hashing,
// with health probing, retries, and hedged requests. The job API and
// its results are identical in every role.
//
//	rrserved -role worker -addr 127.0.0.1:8441 -point-cache-dir /var/cache/w1
//	rrserved -role coordinator -cluster-workers http://127.0.0.1:8441,http://127.0.0.1:8442
//
// API (see docs/serve.md for the full reference):
//
//	GET    /v1/experiments   list runnable experiments
//	POST   /v1/jobs          submit {"experiment","seed","scale","f","r","l"}
//	GET    /v1/jobs/{id}     job status + result
//	DELETE /v1/jobs/{id}     cancel a job
//	GET    /metrics          Prometheus text metrics
//	GET    /healthz, /readyz liveness and readiness
//
// SIGINT/SIGTERM drain gracefully: submissions are refused, queued and
// running jobs get -drain-timeout to finish (then their contexts are
// cancelled), and the result store's disk index is persisted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"regreloc/internal/cluster"
	"regreloc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil, nil))
}

// writeLookupProfile dumps a named runtime profile (mutex, block) to
// path on clean shutdown; failures are reported, not fatal — the
// daemon already served its traffic.
func writeLookupProfile(stderr io.Writer, name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "rrserved: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(stderr, "rrserved: writing %s profile: %v\n", name, err)
	}
}

// run implements the daemon; it returns the process exit status. stop
// (optional) triggers the same graceful drain as SIGTERM; ready
// (optional) receives the bound listen address once serving.
func run(args []string, stderr io.Writer, stop <-chan struct{}, ready chan<- string) int {
	fs := flag.NewFlagSet("rrserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8347", "listen address")
		queueCap      = fs.Int("queue", 64, "job queue capacity (full queue returns 429)")
		workers       = fs.Int("workers", 2, "job worker pool size")
		pointWorkers  = fs.Int("point-workers", 0, "engine workers per job: 0 = one per core")
		jobTimeout    = fs.Duration("job-timeout", 10*time.Minute, "per-job execution deadline")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		pointBytes    = fs.Int64("point-cache-bytes", 32<<20, "in-memory result-store budget in bytes, for sweep points and reports (negative disables all result reuse)")
		pointDir      = fs.String("point-cache-dir", "", "directory for the result store's disk tier (empty = memory only)")
		jobRetention  = fs.Duration("job-retention", 15*time.Minute, "how long finished jobs stay queryable by ID")
		maxJobs       = fs.Int("max-jobs", 1024, "job table cap: oldest finished jobs are pruned past it")
		tenantMax     = fs.Int("tenant-max-inflight", 0, "max active jobs per tenant, 429 past it (0 = no per-tenant cap)")
		tenantWeights = fs.String("tenant-weights", "", "comma-separated tenant dequeue weights, e.g. alice=4,bob=1 (unlisted tenants weigh 1)")
		pprofOn       = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
		role          = fs.String("role", "single", "process role: single, worker (serve the shard compute API), or coordinator (fan sweeps out to -cluster-workers)")
		clusterPeers  = fs.String("cluster-workers", "", "comma-separated worker base URLs (coordinator role only)")
		clusterQuorum = fs.Int("cluster-quorum", 0, "healthy workers required before /readyz reports ready (0 = majority of -cluster-workers)")
		clusterBatch  = fs.Int("cluster-batch", 0, "points per worker compute request (0 = 32)")
		hedgeAfter    = fs.Duration("cluster-hedge-after", 0, "hedge a still-unanswered batch after this long (0 = 500ms, negative disables)")
		hedgeMax      = fs.Float64("cluster-hedge-max", 0, "max hedged batches as a fraction of batches sent (0 = 0.1)")
		clusterRetry  = fs.Int("cluster-retries", 0, "failed-batch re-sends against surviving workers (0 = 2, negative disables)")
		probeInterval = fs.Duration("cluster-probe-interval", 0, "worker health probe spacing (0 = 2s)")
		fidelity      = fs.String("fidelity", "", "default measurement tier for submissions that do not set one: sim, machine, analytic, or adaptive (empty = sim)")
		mtxProf       = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on clean shutdown")
		blkProf       = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file on clean shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *queueCap < 1 || *workers < 1 {
		fmt.Fprintln(stderr, "rrserved: -queue and -workers must be >= 1")
		return 2
	}
	switch *role {
	case "single", "worker", "coordinator":
	default:
		fmt.Fprintf(stderr, "rrserved: -role must be single, worker, or coordinator, got %q\n", *role)
		return 2
	}
	if *role == "coordinator" && *clusterPeers == "" {
		fmt.Fprintln(stderr, "rrserved: -role coordinator requires -cluster-workers")
		return 2
	}
	if *role != "coordinator" && *clusterPeers != "" {
		fmt.Fprintf(stderr, "rrserved: -cluster-workers only applies to -role coordinator (got -role %s)\n", *role)
		return 2
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintf(stderr, "rrserved: %v\n", err)
		return 2
	}
	logger := log.New(stderr, "rrserved ", log.LstdFlags|log.Lmsgprefix)

	// Lock-contention profiles: runtime collection is off by default
	// (it costs a few percent), so it is switched on only when a
	// profile was requested, and the profile is written as the daemon
	// exits. See docs/performance.md, "Diagnosing lock contention".
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookupProfile(stderr, "mutex", *mtxProf)
	}
	if *blkProf != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookupProfile(stderr, "block", *blkProf)
	}

	// Coordinator fan-out client: built before the server so its
	// ReadyCheck and metrics hook into the serving layer's endpoints.
	var cl *cluster.Client
	quorum := 0
	if *role == "coordinator" {
		cl, err = cluster.New(cluster.Config{
			Workers:       strings.Split(*clusterPeers, ","),
			BatchSize:     *clusterBatch,
			Retries:       *clusterRetry,
			HedgeAfter:    *hedgeAfter,
			HedgeMax:      *hedgeMax,
			ProbeInterval: *probeInterval,
			Logf:          logger.Printf,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rrserved: %v\n", err)
			return 2
		}
		quorum = *clusterQuorum
		if quorum <= 0 {
			quorum = cl.WorkerCount()/2 + 1
		}
		if quorum > cl.WorkerCount() {
			fmt.Fprintf(stderr, "rrserved: -cluster-quorum %d exceeds the %d configured workers\n", quorum, cl.WorkerCount())
			return 2
		}
	}

	cfg := serve.Config{
		QueueCap:          *queueCap,
		Workers:           *workers,
		PointWorkers:      *pointWorkers,
		JobTimeout:        *jobTimeout,
		PointCacheBytes:   *pointBytes,
		PointCacheDir:     *pointDir,
		JobRetention:      *jobRetention,
		MaxJobs:           *maxJobs,
		TenantWeights:     weights,
		TenantMaxInflight: *tenantMax,
		Logger:            logger,
		DefaultFidelity:   *fidelity,
	}
	if cl != nil {
		cfg.Remote = cl
		cfg.ReadyCheck = func() error { return cl.Ready(quorum) }
		cfg.ExtraMetrics = cl.WriteProm
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "rrserved: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rrserved: %v\n", err)
		return 1
	}
	srv.Start()
	if cl != nil {
		cl.Start()
		defer cl.Stop()
	}
	handler := srv.Handler()
	if *pprofOn || *role == "worker" {
		// Mount the extra endpoints explicitly on an outer mux rather
		// than relying on global registration, so they exist only when
		// asked for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		if *role == "worker" {
			mux.Handle(cluster.ComputePath, cluster.NewWorker(cluster.WorkerConfig{
				Points:       srv.Points(),
				PointWorkers: *pointWorkers,
				Logf:         logger.Printf,
			}))
		}
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", netpprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		}
		handler = mux
	}
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	logger.Printf("listening on http://%s (role=%s queue=%d workers=%d store=%dB dir=%q)",
		ln.Addr(), *role, *queueCap, *workers, *pointBytes, *pointDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		logger.Printf("serve error: %v", err)
		return 1
	case s := <-sig:
		logger.Printf("received %v, draining (deadline %v)", s, *drainTimeout)
	case <-stop:
		logger.Printf("stop requested, draining (deadline %v)", *drainTimeout)
	}

	// Drain the job layer first — submissions are refused but clients
	// can keep polling their jobs over HTTP until the pool is idle —
	// then close the HTTP server.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer httpCancel()
	hs.Shutdown(httpCtx)
	if drainErr != nil {
		logger.Printf("shutdown: %v", drainErr)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

// parseTenantWeights parses "alice=4,bob=1" into the admission
// queue's weight map. Empty input means every tenant weighs 1.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights: want name=weight, got %q", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenant-weights: weight for %q must be a positive integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}
