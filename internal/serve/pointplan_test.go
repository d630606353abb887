package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regreloc/internal/experiment"
)

// overlapRequests returns two figure5 grid requests sharing the L=32
// column: 4 points each (2 latencies × 2 architectures), 6 distinct
// points between them, 2 shared.
func overlapRequests() (Request, Request) {
	a := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16, 32}}
	b := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{32, 64}}
	return a, b
}

// TestOverlappingJobsShareSimulatedPoints is the tentpole acceptance
// test: two concurrent jobs whose grids overlap must run each shared
// point's simulation exactly once between them — the second requester
// either joins the in-flight computation or hits the stored entry,
// depending on timing, but never recomputes. Run under -race in CI
// (make test-race), where the cross-job Do path is exercised for real.
func TestOverlappingJobsShareSimulatedPoints(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := overlapRequests()

	// Submit both before starting the workers so they run concurrently
	// once Start fires, maximizing the chance of actual in-flight joins
	// (the counters below are correct for any interleaving).
	ja, status, err := s.Submit(reqA)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit A: status=%d err=%v", status, err)
	}
	jb, status, err := s.Submit(reqB)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit B: status=%d err=%v", status, err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	waitDone(t, ja)
	waitDone(t, jb)
	if ja.StateNow() != StateDone || jb.StateNow() != StateDone {
		t.Fatalf("states = %s, %s", ja.StateNow(), jb.StateNow())
	}

	c := s.PointCounters()
	// 8 point resolutions total across both jobs; 6 distinct cells, so
	// exactly 6 simulations and 2 shared resolutions (join if the
	// flight was still open, hit if it had landed).
	if c.Misses != 6 {
		t.Errorf("point misses = %d, want 6 (one simulation per distinct cell)", c.Misses)
	}
	if c.Hits+c.Joins != 2 {
		t.Errorf("hits+joins = %d+%d, want 2 (the shared L=32 column)", c.Hits, c.Joins)
	}
}

// TestFullyCoveredRequestAssemblesInline pins the planner fast path: a
// request whose every point is already stored — here the same cells in
// reversed grid order, which no stored report answers —
// returns a done job synchronously (200), simulating nothing.
func TestFullyCoveredRequestAssemblesInline(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	warm := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16, 32}}
	j, status, err := s.Submit(warm)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("warm submit: status=%d err=%v", status, err)
	}
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("warm job state = %s", j.StateNow())
	}
	missesAfterWarm := s.PointCounters().Misses

	// Same cells, reversed L order: a distinct report (row order is
	// part of the report's identity) but zero new simulation.
	reordered := warm
	reordered.L = []int{32, 16}
	j2, status, err := s.Submit(reordered)
	if err != nil || status != http.StatusOK {
		t.Fatalf("covered submit: status=%d err=%v", status, err)
	}
	if j2.StateNow() != StateDone {
		t.Fatalf("covered job state = %s, want done (inline assembly)", j2.StateNow())
	}
	if c := s.PointCounters(); c.Misses != missesAfterWarm {
		t.Errorf("covered request simulated %d new points, want 0", c.Misses-missesAfterWarm)
	}
	st := j2.Status(true)
	if st.Plan == nil || st.Plan.Points != 4 || st.Plan.Cached != 4 {
		t.Errorf("plan = %+v, want 4/4 covered", st.Plan)
	}
	var rep wireReport
	if err := json.Unmarshal(j2.Result(), &rep); err != nil {
		t.Fatalf("inline result not valid report JSON: %v", err)
	}
	if len(rep.Points) != 4 {
		t.Errorf("inline report has %d points, want 4", len(rep.Points))
	}
	// Row order follows the requested grid, not the warm job's.
	if rep.Points[0].L != 32 {
		t.Errorf("first row L = %d, want 32 (requested order)", rep.Points[0].L)
	}

	// The partially covered case still queues: growing the grid by one
	// row costs one queue slot but only the new cells' simulations.
	grown := warm
	grown.L = []int{16, 32, 64}
	j3, status, err := s.Submit(grown)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("grown submit: status=%d err=%v", status, err)
	}
	waitDone(t, j3)
	if c := s.PointCounters(); c.Misses != missesAfterWarm+2 {
		t.Errorf("grown grid simulated %d new points, want 2", c.Misses-missesAfterWarm)
	}
	if st := j3.Status(false); st.Plan == nil || st.Plan.Points != 6 || st.Plan.Cached != 4 {
		t.Errorf("grown plan = %+v, want 6 points / 4 cached", st.Plan)
	}
}

// TestInlineAssemblyRunsHeldPlan pins that an inline job assembles
// from the plan its submission probed, not from a fresh sweep. The
// runner floods the memory-only store until every probed entry is gone
// before it runs the job: a fresh sweep would simulate them all on the
// submitting goroutine, the held plan simulates nothing. The bytes
// match a storeless server's.
func TestInlineAssemblyRunsHeldPlan(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = 1 << 18
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16, 32}}
	reordered := warm
	reordered.L = []int{32, 16}
	e, _ := experiment.Get("figure5")
	keys := e.PointKeys(reordered.Seed, reordered.scale(), reordered.grids())
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		if j.Key == reordered.Key() {
			junk := bytes.Repeat([]byte("e"), 16<<10)
			for i := 0; s.points.Covered(keys) > 0; i++ {
				s.points.Put(fmt.Sprintf("flood%d", i), junk)
			}
		}
		return s.runExperiment(ctx, j)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	misses := s.PointCounters().Misses
	j, status, err := s.Submit(reordered)
	if err != nil || status != http.StatusOK || j.StateNow() != StateDone {
		t.Fatalf("covered submit: status=%d err=%v state=%s, want 200 done", status, err, j.StateNow())
	}
	if got := s.PointCounters().Misses - misses; got != 0 {
		t.Errorf("inline job simulated %d points after eviction, want 0", got)
	}

	cfg.PointCacheBytes = -1
	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold.Start()
	defer cold.Shutdown(context.Background())
	cj, _, err := cold.Submit(reordered)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cj)
	if !bytes.Equal(j.Result(), cj.Result()) {
		t.Error("held-plan assembly differs from a storeless run")
	}
}

// TestQueuedSubmissionHoldsNoPlan pins what a submission keeps while
// it waits. A partially covered job queues without the bytes its probe
// found: its run probes again. A submission that rides an identical
// in-flight job probes nothing, so the store counts no hits for it.
func TestQueuedSubmissionHoldsNoPlan(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	realRun := s.runJob
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		if len(j.Req.L) > 1 {
			<-gate
		}
		return realRun(ctx, j)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	grown := tinyRequest()
	grown.L = []int{16, 32}
	j, status, err := s.Submit(grown)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("grown submit: status=%d err=%v, want 201", status, err)
	}
	if j.plan != nil {
		t.Error("queued job holds its probed plan")
	}
	hits := s.PointCounters().Hits
	rider, status, err := s.Submit(grown)
	if err != nil || status != http.StatusOK || rider != j {
		t.Fatalf("repeat submit: status=%d err=%v, want 200 onto the in-flight job", status, err)
	}
	if got := s.PointCounters().Hits - hits; got != 0 {
		t.Errorf("coalesced submission counted %d store hits, want 0", got)
	}
	close(gate)
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("grown job state = %s", j.StateNow())
	}
}

// TestPointStoreDisabled checks the opt-out: with a negative budget the
// server runs storeless — no plan info, no metrics series, identical
// results.
func TestPointStoreDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	if s.points != nil {
		t.Fatal("negative PointCacheBytes did not disable the store")
	}
	j, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("state = %s", j.StateNow())
	}
	if st := j.Status(false); st.Plan != nil {
		t.Errorf("storeless job carries a plan: %+v", st.Plan)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "rrserve_pointstore_") {
		t.Error("disabled store still exports rrserve_pointstore_* series")
	}
}

// TestPointStoreMetricsExported checks the satellite metrics: after a
// warm re-submission the /metrics endpoint reports point hits, misses,
// plan totals, and the store gauges.
func TestPointStoreMetricsExported(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	reordered := tinyRequest()
	reordered.L = []int{16} // same single cell; hit the stored report
	if _, _, err := s.Submit(reordered); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"rrserve_pointstore_hits_total",
		"rrserve_pointstore_misses_total 2",
		"rrserve_pointstore_coalesced_total",
		"rrserve_pointstore_evictions_total",
		"rrserve_pointstore_spill_bytes_total",
		"rrserve_pointstore_verify_failures_total",
		"rrserve_pointstore_entries 3", // two points plus the report
		"rrserve_plan_points_total 2",
		"rrserve_plan_cached_points_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPointStorePersistsAcrossRestart checks warm-restart behaviour: a
// daemon with a point-cache directory that shuts down cleanly answers
// a repeated request from its stored report after restart, simulating
// nothing.
func TestPointStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.PointCacheDir = dir

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Shutdown(context.Background())
	j2, status, err := s2.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The report itself persisted with the points: the restarted
	// daemon answers it from the store, simulating nothing.
	if status != http.StatusOK || !j2.Status(false).Cached {
		t.Fatalf("restarted submit: status=%d cached=%v, want 200 from the stored report", status, j2.Status(false).Cached)
	}
	if j2.StateNow() != StateDone {
		t.Fatalf("restarted job state = %s", j2.StateNow())
	}
	if c := s2.PointCounters(); c.Misses != 0 {
		t.Errorf("restarted daemon simulated %d points, want 0 (disk tier)", c.Misses)
	}
}

// TestReportHitHashesNoPointKeys pins the report-first lookup: a
// resubmitted request whose report is stored is answered without
// planning its points — no key hashing, no store probe — so the cost
// of the answer does not grow with the grid. The plan still counts
// every cell (rrload's points/s reads it), all of them cached.
func TestReportHitHashesNoPointKeys(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	small := tinyRequest() // 2 cells
	large := Request{Experiment: "figure5", Seed: 1, Scale: "quick", Fidelity: "analytic",
		F: []int{64, 128, 256}, R: []int{8, 32, 128}, L: []int{16, 32, 64, 128}} // 72 cells
	allocs := map[string]float64{}
	for name, req := range map[string]Request{"small": small, "large": large} {
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		hits := s.PointCounters().Hits
		j, status, err := s.Submit(req)
		if err != nil || status != http.StatusOK || !j.Status(false).Cached {
			t.Fatalf("%s resubmit: status=%d err=%v, want 200 from the stored report", name, status, err)
		}
		if got := s.PointCounters().Hits - hits; got != 1 {
			t.Errorf("%s resubmit: %d store hits, want 1 (the report)", name, got)
		}
		cells := 2
		if name == "large" {
			cells = 72
		}
		if st := j.Status(false); st.Plan == nil || st.Plan.Points != cells || st.Plan.Cached != cells {
			t.Errorf("%s resubmit plan = %+v, want %d/%d", name, st.Plan, cells, cells)
		}
		allocs[name] = testing.AllocsPerRun(20, func() {
			if _, _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("report-hit allocations: %.0f (2 cells), %.0f (72 cells)", allocs["small"], allocs["large"])
	if grow := allocs["large"] - allocs["small"]; grow >= 72-2 {
		t.Errorf("report hit allocates %.0f (72 cells) vs %.0f (2 cells): %.1f per added cell, want < 1",
			allocs["large"], allocs["small"], grow/70)
	}
}
