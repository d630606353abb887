package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"regreloc/internal/cluster"
	"regreloc/internal/serve"
)

// testWorker is one fake fleet member: a real compute handler behind
// controllable readiness and an optional wrapper for fault injection.
type testWorker struct {
	ts       *httptest.Server
	ready    atomic.Bool
	computes atomic.Int64
}

// newTestWorker boots an httptest worker serving /readyz and the shard
// compute API. wrap, if non-nil, interposes on compute requests (to
// inject failures, delays, or corruption); it receives the real
// handler to delegate to.
func newTestWorker(t *testing.T, wrap func(http.Handler, http.ResponseWriter, *http.Request)) *testWorker {
	t.Helper()
	w := &testWorker{}
	w.ready.Store(true)
	compute := http.Handler(cluster.NewWorker(cluster.WorkerConfig{
		PointWorkers: 2,
		Logf:         t.Logf,
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, r *http.Request) {
		if !w.ready.Load() {
			http.Error(rw, "not ready", http.StatusServiceUnavailable)
			return
		}
		rw.Write([]byte("ready\n"))
	})
	mux.HandleFunc(cluster.ComputePath, func(rw http.ResponseWriter, r *http.Request) {
		w.computes.Add(1)
		if wrap != nil {
			wrap(compute, rw, r)
			return
		}
		compute.ServeHTTP(rw, r)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func urls(ws ...*testWorker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ts.URL
	}
	return out
}

func newClient(t *testing.T, cfg cluster.Config) *cluster.Client {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // tests drive probes explicitly
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// runJob submits one sweep through a serve.Server and returns its
// report bytes.
func runJob(t *testing.T, cfg serve.Config) []byte {
	t.Helper()
	cfg.QueueCap, cfg.Workers, cfg.PointWorkers = 4, 1, 2
	cfg.JobTimeout = time.Minute
	cfg.Logger = log.New(io.Discard, "", 0)
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	// 32 cells: workers listen on random ports, so key ownership is
	// random per run, and the worker-death and hedging tests need their
	// faulty worker to own a batch. With 8 cells, one of three workers
	// owned none in about one run in ten.
	j, _, err := s.Submit(serve.Request{
		Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{32, 64}, R: []int{8, 16, 32, 64}, L: []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(45 * time.Second):
		t.Fatalf("job did not finish (state %s)", j.StateNow())
	}
	if j.StateNow() != serve.StateDone {
		t.Fatalf("job state = %s", j.StateNow())
	}
	res := j.Result()
	if len(res) == 0 {
		t.Fatal("empty result")
	}
	return res
}

// TestClusterByteIdenticalToSingleNode is the tentpole acceptance
// test: the same sweep through a coordinator fanning out to three
// workers must produce byte-for-byte the report a single node
// produces.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	single := runJob(t, serve.Config{})

	w1, w2, w3 := newTestWorker(t, nil), newTestWorker(t, nil), newTestWorker(t, nil)
	cl := newClient(t, cluster.Config{Workers: urls(w1, w2, w3), BatchSize: 2})
	if err := cl.Ready(3); err != nil {
		t.Fatalf("fleet not healthy after Start: %v", err)
	}
	clustered := runJob(t, serve.Config{Remote: cl})

	if !bytes.Equal(single, clustered) {
		t.Fatalf("cluster report differs from single-node (%d vs %d bytes)", len(clustered), len(single))
	}
	c := cl.Counters()
	if c.Points == 0 {
		t.Fatal("cluster answered 0 points; the sweep never used the fleet")
	}
	if got := w1.computes.Load() + w2.computes.Load() + w3.computes.Load(); got == 0 {
		t.Fatal("no worker received a compute request")
	}
}

// TestClusterSurvivesWorkerDeath kills one of three workers mid-sweep
// — it is admitted healthy, then every compute request to it fails —
// and requires the sweep to finish with byte-identical results via
// retries against the survivors.
func TestClusterSurvivesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	single := runJob(t, serve.Config{})

	dead := newTestWorker(t, func(h http.Handler, rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "worker killed", http.StatusInternalServerError)
	})
	w2, w3 := newTestWorker(t, nil), newTestWorker(t, nil)
	cl := newClient(t, cluster.Config{
		Workers:   urls(dead, w2, w3),
		BatchSize: 1, // many small batches so the dead worker owns some
		Retries:   3,
	})
	clustered := runJob(t, serve.Config{Remote: cl})

	if !bytes.Equal(single, clustered) {
		t.Fatalf("report differs after worker death (%d vs %d bytes)", len(clustered), len(single))
	}
	c := cl.Counters()
	if dead.computes.Load() == 0 {
		t.Fatal("dead worker never owned a batch; the test exercised nothing")
	}
	if c.BatchFails == 0 || c.Retries == 0 {
		t.Fatalf("expected failed batches and retries, got %+v", c)
	}
	if c.Points == 0 {
		t.Fatalf("survivors answered no points: %+v", c)
	}
}

// TestClusterHedgesStragglers pins the tail-latency path: a worker
// that answers correctly but slowly gets hedged, and the duplicate
// responses dedupe into a byte-identical report.
func TestClusterHedgesStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	single := runJob(t, serve.Config{})

	slow := newTestWorker(t, func(h http.Handler, rw http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		h.ServeHTTP(rw, r)
	})
	fast := newTestWorker(t, nil)
	cl := newClient(t, cluster.Config{
		Workers:    urls(slow, fast),
		BatchSize:  1,
		HedgeAfter: 20 * time.Millisecond,
		HedgeMax:   1.0,
	})
	clustered := runJob(t, serve.Config{Remote: cl})

	if !bytes.Equal(single, clustered) {
		t.Fatalf("report differs with hedging (%d vs %d bytes)", len(clustered), len(single))
	}
	if c := cl.Counters(); c.Hedges == 0 {
		t.Fatalf("slow worker never hedged: %+v", c)
	}
}

// TestClusterVersionSkewFallsBackLocally wires a worker that answers
// with rewritten (wrong-version) keys: the coordinator must drop every
// result and the engine compute locally, keeping bytes identical.
func TestClusterVersionSkewFallsBackLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	single := runJob(t, serve.Config{})

	skewed := newTestWorker(t, func(h http.Handler, rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp struct {
			Results []struct {
				Key  string `json:"key"`
				Data []byte `json:"data"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		for i := range resp.Results {
			resp.Results[i].Key = "otherversion-" + resp.Results[i].Key
		}
		json.NewEncoder(rw).Encode(&resp)
	})
	cl := newClient(t, cluster.Config{Workers: []string{skewed.ts.URL}, Retries: 1})
	clustered := runJob(t, serve.Config{Remote: cl})

	if !bytes.Equal(single, clustered) {
		t.Fatalf("version-skewed worker corrupted the report (%d vs %d bytes)", len(clustered), len(single))
	}
	c := cl.Counters()
	if c.Points != 0 {
		t.Fatalf("skewed results were accepted: %+v", c)
	}
	if c.BatchFails == 0 {
		t.Fatalf("skewed batches should fail: %+v", c)
	}
}

// TestDownWorkerReceivesNoCompute pins placement to the healthy
// workers: one that has not passed a probe gets no compute request —
// no primary, retry or hedge — during a sweep that retries and hedges,
// and gets requests once a probe admits it.
func TestDownWorkerReceivesNoCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	down := newTestWorker(t, nil)
	down.ready.Store(false)
	failing := newTestWorker(t, func(h http.Handler, rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "compute broken", http.StatusInternalServerError)
	})
	slowly := func(h http.Handler, rw http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		h.ServeHTTP(rw, r)
	}
	slow1, slow2 := newTestWorker(t, slowly), newTestWorker(t, slowly)
	cl := newClient(t, cluster.Config{
		Workers: urls(down, failing, slow1, slow2),
		// One-point batches: every key picks its own primary, retry
		// and hedge target. failing's batches are retried; the slow
		// workers' batches are hedged to each other.
		BatchSize:  1,
		HedgeAfter: 10 * time.Millisecond,
		HedgeMax:   1.0,
	})
	if got := cl.HealthyCount(); got != 3 {
		t.Fatalf("healthy = %d after Start, want 3", got)
	}
	runJob(t, serve.Config{Remote: cl})
	if n := down.computes.Load(); n != 0 {
		t.Fatalf("down worker received %d compute requests", n)
	}
	if c := cl.Counters(); c.Retries == 0 || c.Hedges == 0 {
		t.Fatalf("sweep exercised no retry or no hedge: %+v", c)
	}

	down.ready.Store(true)
	cl.ProbeNow()
	runJob(t, serve.Config{Remote: cl})
	if down.computes.Load() == 0 {
		t.Fatal("admitted worker received no compute request")
	}
}

// TestProbeEjectsAndReadmits drives the health prober through a
// worker's outage and recovery.
func TestProbeEjectsAndReadmits(t *testing.T) {
	w := newTestWorker(t, nil)
	cl := newClient(t, cluster.Config{Workers: urls(w)})

	if cl.HealthyCount() != 1 {
		t.Fatalf("healthy = %d after Start, want 1", cl.HealthyCount())
	}
	if err := cl.Ready(1); err != nil {
		t.Fatalf("Ready(1) = %v", err)
	}

	w.ready.Store(false)
	cl.ProbeNow() // first failure: still healthy
	if cl.HealthyCount() != 1 {
		t.Fatal("ejected after a single failed probe")
	}
	cl.ProbeNow() // second consecutive failure: ejected
	if cl.HealthyCount() != 0 {
		t.Fatal("not ejected after two consecutive failures")
	}
	if err := cl.Ready(1); err == nil {
		t.Fatal("Ready(1) nil with no healthy worker")
	}

	w.ready.Store(true)
	cl.ProbeNow() // one success re-admits immediately
	if cl.HealthyCount() != 1 {
		t.Fatal("not re-admitted after a successful probe")
	}
}

// TestCoordinatorReadyzQuorum pins satellite 2: a coordinator's
// /readyz answers 503 until the configured quorum of workers is
// healthy.
func TestCoordinatorReadyzQuorum(t *testing.T) {
	w1, w2 := newTestWorker(t, nil), newTestWorker(t, nil)
	w1.ready.Store(false)
	w2.ready.Store(false)
	cl := newClient(t, cluster.Config{Workers: urls(w1, w2)})

	s, err := serve.New(serve.Config{
		QueueCap: 4, Workers: 1, JobTimeout: time.Minute,
		Logger:     log.New(io.Discard, "", 0),
		Remote:     cl,
		ReadyCheck: func() error { return cl.Ready(2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	readyz := func() int {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rr.Code
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with 0/2 workers = %d, want 503", got)
	}
	w1.ready.Store(true)
	cl.ProbeNow()
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with 1/2 workers (quorum 2) = %d, want 503", got)
	}
	w2.ready.Store(true)
	cl.ProbeNow()
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("readyz with 2/2 workers = %d, want 200", got)
	}
}

// TestClusterMetricsExposed checks the coordinator metric families
// land on /metrics via the ExtraMetrics hook.
func TestClusterMetricsExposed(t *testing.T) {
	w := newTestWorker(t, nil)
	cl := newClient(t, cluster.Config{Workers: urls(w)})
	s, err := serve.New(serve.Config{
		QueueCap: 4, Workers: 1, JobTimeout: time.Minute,
		Logger:       log.New(io.Discard, "", 0),
		Remote:       cl,
		ExtraMetrics: cl.WriteProm,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	for _, family := range []string{
		"rrserve_cluster_worker_up",
		"rrserve_cluster_worker_batches_total",
		"rrserve_cluster_batch_seconds_bucket",
		"rrserve_cluster_workers_healthy 1",
		"rrserve_cluster_retries_total",
		"rrserve_cluster_hedges_total",
		"rrserve_cluster_key_mismatches_total",
	} {
		if !bytes.Contains([]byte(body), []byte(family)) {
			t.Errorf("metrics missing %q", family)
		}
	}
}
