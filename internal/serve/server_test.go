package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		QueueCap:     8,
		Workers:      2,
		PointWorkers: 2,
		JobTimeout:   time.Minute,
		Logger:       log.New(io.Discard, "", 0),
	}
}

// tinyRequest is the canonical cheap sweep used across the tests: one
// grid cell (two architectures) of Figure 5 at quick scale.
func tinyRequest() Request {
	return Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16}}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.StateNow())
	}
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("state = %s", j.StateNow())
	}
	cold := j.Result()
	if len(cold) == 0 {
		t.Fatal("no result bytes")
	}
	var rep wireReport
	if err := json.Unmarshal(cold, &rep); err != nil {
		t.Fatalf("result not valid report JSON: %v", err)
	}
	if len(rep.Points) != 2 { // fixed + flexible for one (F,R,L) cell
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}

	// Identical submission: answered from the cache, byte-identical.
	j2, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusOK {
		t.Fatalf("resubmit: status=%d err=%v", status, err)
	}
	st := j2.Status(true)
	if !st.Cached || st.State != StateDone {
		t.Fatalf("resubmit not served from cache: %+v", st)
	}
	if !bytes.Equal(cold, j2.Result()) {
		t.Fatal("cache hit differs from cold run")
	}
	// A cache-hit job is born terminal; its context must be released
	// immediately or every hit would leak a registration on baseCtx.
	if j2.ctx.Err() == nil {
		t.Error("cache-hit job context not released")
	}

	// Determinism across server instances: a cold run elsewhere
	// produces the same bytes, which is what makes the cache sound.
	s2, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Shutdown(context.Background())
	j3, _, err := s2.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if !bytes.Equal(cold, j3.Result()) {
		t.Fatal("cold runs differ across server instances")
	}
}

// TestSingleFlightCoalescing is the acceptance criterion: >= 8
// concurrent submissions of the same sweep produce exactly one
// underlying engine run.
func TestSingleFlightCoalescing(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Gate the runner so every submission arrives while the first job
	// is still in flight — deterministic coalescing, not a race.
	gate := make(chan struct{})
	realRun := s.runJob
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		<-gate
		return realRun(ctx, j)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	const n = 8
	jobs := make([]*Job, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, status, err := s.Submit(tinyRequest())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i], statuses[i] = j, status
		}(i)
	}
	wg.Wait()
	close(gate)

	created := 0
	for i, j := range jobs {
		if j == nil {
			t.Fatal("missing job")
		}
		if j != jobs[0] {
			t.Errorf("submission %d got a different job (%s vs %s)", i, j.ID, jobs[0].ID)
		}
		if statuses[i] == http.StatusCreated {
			created++
		}
	}
	if created != 1 {
		t.Errorf("created = %d, want exactly 1 (rest coalesced)", created)
	}
	waitDone(t, jobs[0])

	s.met.mu.Lock()
	runs, coalesced := s.met.engineRuns, s.met.coalesced
	s.met.mu.Unlock()
	if runs != 1 {
		t.Errorf("engine runs = %d, want 1", runs)
	}
	if coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, n-1)
	}
}

func TestQueueSaturationReturns429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 1
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		select {
		case <-release:
			return []byte(`{}`), 0, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	s.Start()
	defer func() { close(release); s.Shutdown(context.Background()) }()

	// Distinct requests so nothing coalesces. The first occupies the
	// worker, the second the single queue slot; the third must bounce.
	mkReq := func(seed uint64) Request {
		r := tinyRequest()
		r.Seed = seed
		return r
	}
	j1, _, err := s.Submit(mkReq(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is actually running so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for j1.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, status, err := s.Submit(mkReq(2)); err != nil || status != http.StatusCreated {
		t.Fatalf("submit 2: status=%d err=%v", status, err)
	}
	_, status, err := s.Submit(mkReq(3))
	if status != http.StatusTooManyRequests || err == nil {
		t.Fatalf("submit 3: status=%d err=%v, want 429", status, err)
	}

	// Over HTTP the rejection carries Retry-After.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(mkReq(4))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		<-ctx.Done()
		return nil, 0, ctx.Err()
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	waitDone(t, j)
	if j.StateNow() != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.StateNow())
	}

	// The identical request must now start fresh, not attach to the
	// cancelled flight or a poisoned cache entry.
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		return []byte(`{"ok":true}`), 1, nil
	}
	j2, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("resubmit after cancel: status=%d err=%v", status, err)
	}
	waitDone(t, j2)
	if j2.StateNow() != StateDone {
		t.Fatalf("resubmit state = %s", j2.StateNow())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		select {
		case <-release:
			return []byte(`{}`), 0, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	s.Start()
	defer func() { close(release); s.Shutdown(context.Background()) }()

	blocker, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blocker.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queuedReq := tinyRequest()
	queuedReq.Seed = 99
	queued, _, err := s.Submit(queuedReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel queued: not found")
	}
	// Queued cancellations finalize immediately, without a worker.
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job not finalized on cancel")
	}
	if queued.StateNow() != StateCanceled {
		t.Fatalf("state = %s", queued.StateNow())
	}
}

// TestSetStateRefusesTerminalTransition pins the invariant behind the
// Cancel/worker handoff: once a job is finalized, neither setState nor
// a second finalize may move it (a resurrected job would double-close
// its done channel and panic the daemon).
func TestSetStateRefusesTerminalTransition(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.newJobLocked("k", tinyRequest(), 0, 0, nil, nil)
	s.mu.Unlock()
	if !j.finalize(StateCanceled, nil, context.Canceled) {
		t.Fatal("first finalize refused")
	}
	if j.setState(StateRunning) {
		t.Fatal("setState resurrected a terminal job")
	}
	if got := j.StateNow(); got != StateCanceled {
		t.Fatalf("state = %s, want canceled", got)
	}
	if j.finalize(StateDone, []byte(`{}`), nil) {
		t.Fatal("second finalize succeeded (would double-close done)")
	}
}

// TestCancelSubmitRace hammers the queued→running handoff: a Cancel
// landing between the worker's context check and its running
// transition used to overwrite the terminal state and double-close the
// done channel. Run under -race in CI.
func TestCancelSubmitRace(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 4
	cfg.Workers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		return []byte(`{}`), 0, nil
	}
	s.Start()
	defer s.Shutdown(context.Background())

	for i := 0; i < 300; i++ {
		req := tinyRequest()
		req.Seed = uint64(i + 1000) // distinct keys: no coalescing, no cache hits
		j, status, err := s.Submit(req)
		if err != nil {
			if status == http.StatusTooManyRequests {
				continue
			}
			t.Fatal(err)
		}
		go s.Cancel(j.ID)
		waitDone(t, j)
		if got := j.StateNow(); got != StateDone && got != StateCanceled {
			t.Fatalf("iteration %d: state = %s", i, got)
		}
	}
}

// TestTerminalJobsPruned bounds the job table: past MaxJobs the oldest
// terminal jobs (and their result bytes) are dropped on the next
// submission, leaving the content-addressed cache as the durable store.
func TestTerminalJobsPruned(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 4
	cfg.JobRetention = time.Hour // only the cap triggers here
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		return []byte(`{}`), 0, nil
	}
	s.Start()
	defer s.Shutdown(context.Background())

	var first *Job
	for i := 0; i < 12; i++ {
		req := tinyRequest()
		req.Seed = uint64(i + 1)
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j
		}
		waitDone(t, j)
	}
	s.mu.Lock()
	nJobs, nOrder := len(s.jobs), len(s.order)
	s.mu.Unlock()
	// Pruning runs before each submission registers its job, so the
	// table holds at most MaxJobs survivors plus the newest job.
	if nJobs > cfg.MaxJobs+1 {
		t.Errorf("job table not bounded: %d jobs (MaxJobs %d)", nJobs, cfg.MaxJobs)
	}
	if nJobs != nOrder {
		t.Errorf("jobs/order out of sync: %d vs %d", nJobs, nOrder)
	}
	if _, ok := s.Job(first.ID); ok {
		t.Error("oldest terminal job survived cap pruning")
	}
}

// TestJobRetentionWindow prunes terminal jobs by age: after the window
// the job ID is gone (404) but the result still answers an identical
// resubmission from the cache.
func TestJobRetentionWindow(t *testing.T) {
	cfg := testConfig()
	cfg.JobRetention = 5 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j1, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	time.Sleep(25 * time.Millisecond)

	other := tinyRequest()
	other.Seed = 2
	j2, _, err := s.Submit(other) // any submission triggers pruning
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(j1.ID); ok {
		t.Error("expired terminal job still queryable")
	}
	if _, ok := s.Job(j2.ID); !ok {
		t.Error("fresh job pruned")
	}
	waitDone(t, j2)

	// The pruned job's result lives on in the content-addressed cache.
	j3, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusOK {
		t.Fatalf("resubmit after prune: status=%d err=%v", status, err)
	}
	if st := j3.Status(true); !st.Cached || st.State != StateDone {
		t.Errorf("resubmit not served from cache: %+v", st)
	}
}

func TestGracefulShutdownCancelsInFlight(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		<-ctx.Done() // a job that only ends by cancellation
		return nil, 0, ctx.Err()
	}
	s.Start()
	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v", d)
	}
	if j.StateNow() != StateCanceled {
		t.Fatalf("in-flight job state = %s, want canceled", j.StateNow())
	}

	// Post-shutdown submissions are refused.
	if _, status, err := s.Submit(tinyRequest()); status != http.StatusServiceUnavailable || err == nil {
		t.Fatalf("post-shutdown submit: status=%d err=%v", status, err)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz: %d", code)
	}
	if code, body := get("/v1/experiments"); code != 200 || !strings.Contains(body, "figure5") {
		t.Fatalf("experiments: %d %q", code, body)
	}

	// Submit and poll to completion.
	reqBody, _ := json.Marshal(tinyRequest())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get("/v1/jobs/" + st.ID)
		if code != 200 {
			t.Fatalf("poll: %d", code)
		}
		var cur Status
		if err := json.Unmarshal([]byte(body), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == StateDone {
			if len(cur.Result) == 0 {
				t.Fatal("done job without result")
			}
			break
		}
		if cur.State.terminal() {
			t.Fatalf("job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Job listing knows the job; metrics are consistent.
	if code, body := get("/v1/jobs"); code != 200 || !strings.Contains(body, st.ID) {
		t.Fatalf("job list: %d", code)
	}
	code, metricsBody := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"rrserve_jobs_submitted_total 1",
		`rrserve_jobs_total{state="done"} 1`,
		"rrserve_engine_runs_total 1",
		"rrserve_cache_misses_total 1",
		`rrserve_job_duration_seconds_count{experiment="figure5"} 1`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// Validation surface.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"experiment":"nope"}`, http.StatusBadRequest},
		{`{"experiment":"figure5","bogus":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{fmt.Sprintf(`{"experiment":"figure5","f":[%s1]}`, strings.Repeat("1,", 2<<20)), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %.40q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	if code, _ := get("/v1/jobs/none"); code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", code)
	}
}
