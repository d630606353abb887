package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"regreloc/internal/experiment"
)

func adaptiveRequest() Request {
	return Request{Experiment: "figure5", Seed: 11, Scale: "quick",
		Fidelity: "adaptive", F: []int{32, 64}, R: []int{8, 16}, L: []int{16, 32}}
}

// TestKeyIncludesFidelity: the cache key must separate tiers — a
// result computed at one fidelity must never answer another — while
// the empty tier stays an alias for "sim".
func TestKeyIncludesFidelity(t *testing.T) {
	base := tinyRequest()
	keys := map[string]string{}
	for _, fid := range []string{"sim", "machine", "analytic", "adaptive"} {
		q := base
		q.Fidelity = fid
		k := q.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("fidelity %s and %s share cache key %s", prev, fid, k)
		}
		keys[k] = fid
	}
	q := base
	q.Fidelity = ""
	if q.Key() != func() string { q := base; q.Fidelity = "sim"; return q.Key() }() {
		t.Error("empty fidelity and explicit sim produce different keys")
	}
}

// TestFidelityValidation pins the 400s: unknown tiers, and non-sim
// tiers on experiments without a grid sweep.
func TestFidelityValidation(t *testing.T) {
	q := tinyRequest()
	q.Fidelity = "psychic"
	if err := q.validate(); err == nil {
		t.Error("unknown fidelity accepted")
	}
	for _, fid := range []string{"machine", "analytic", "adaptive"} {
		q := Request{Experiment: "ablation-policy", Seed: 1, Fidelity: fid}
		if err := q.validate(); err == nil {
			t.Errorf("fidelity %s accepted on a non-grid experiment", fid)
		}
	}
	s, err := New(Config{DefaultFidelity: "warp"})
	if err == nil {
		t.Error("New accepted an unknown DefaultFidelity")
		s.Shutdown(context.Background())
	}
}

// TestAdaptiveRepeatSkipsAnalyticPhase: the report is looked up before
// the analytic phase, so resubmitting a finished adaptive request is a
// plain report hit — one store hit, no analytic cells resolved, nothing
// simulated.
func TestAdaptiveRepeatSkipsAnalyticPhase(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(adaptiveRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	before := s.PointCounters()
	j2, status, err := s.Submit(adaptiveRequest())
	if err != nil || status != http.StatusOK {
		t.Fatalf("repeat: status=%d err=%v, want 200", status, err)
	}
	if st := j2.Status(false); !st.Cached || st.Partial != nil {
		t.Errorf("repeat: cached=%v partial=%d bytes, want a cached job with no partial", st.Cached, len(st.Partial))
	}
	after := s.PointCounters()
	if got := after.Hits - before.Hits; got != 1 {
		t.Errorf("repeat: %d store hits, want 1 (the report lookup)", got)
	}
	if after.Misses != before.Misses {
		t.Errorf("repeat: %d new misses, want 0", after.Misses-before.Misses)
	}
}

// TestAdaptiveLifecycle is the end-to-end contract of the adaptive
// tier: the partial analytic report is available the moment Submit
// returns; the SSE stream opens with the partial event, carries
// refined cells, publishes error bounds, and ends with the terminal
// state, all with contiguous event IDs; the converged result is
// byte-identical to the engine's own sim report; and completing the
// job warms the sim-tier twin's cache entry.
func TestAdaptiveLifecycle(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := adaptiveRequest()
	j, status, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if status != 201 && status != 200 {
		t.Fatalf("submit status %d", status)
	}

	// The analytic answer is there before any refinement ran.
	st := j.Status(false)
	if st.Fidelity != "adaptive" {
		t.Errorf("status fidelity %q, want adaptive", st.Fidelity)
	}
	if len(st.Partial) == 0 {
		t.Fatal("no partial result on a freshly submitted adaptive job")
	}

	events := readSSE(t, ts, j.ID, 0)
	if len(events) < 3 {
		t.Fatalf("too few events: %+v", events)
	}
	if events[0].Type != EventPartial || events[0].ID != 1 {
		t.Fatalf("first event is %+v, want partial with ID 1", events[0])
	}
	if events[0].Fidelity != "analytic" || events[0].Total <= 0 {
		t.Errorf("partial event lacks tier/cell count: %+v", events[0])
	}
	var cells, boundsAt, terminalAt int
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Fatalf("event IDs not contiguous: %+v", events)
		}
		switch ev.Type {
		case EventCells:
			cells += len(ev.Cells)
			for _, c := range ev.Cells {
				if c.AbsErr < 0 || c.AbsErr > 1 {
					t.Errorf("cell delta %+v outside [0, 1]", c)
				}
			}
		case EventBounds:
			boundsAt = i
			if ev.Bounds == nil || ev.Bounds.CalibratedMaxAbs != experiment.AnalyticCalibratedMaxAbs {
				t.Errorf("bounds event malformed: %+v", ev)
			}
		case EventState:
			if ev.State.terminal() {
				terminalAt = i
			}
		}
	}
	wantCells := 2 * 2 * 2 * 2 // two archs × the 2×2×2 grid
	if cells != wantCells {
		t.Errorf("streamed %d refined cells, want %d", cells, wantCells)
	}
	if boundsAt == 0 || terminalAt != len(events)-1 || boundsAt >= terminalAt {
		t.Errorf("bounds at %d, terminal at %d of %d: want bounds immediately before the final terminal event", boundsAt, terminalAt, len(events))
	}

	waitDone(t, j)
	if got := j.StateNow(); got != StateDone {
		t.Fatalf("job state %s", got)
	}

	// Converged result is byte-identical to the engine's sim report.
	e, _ := experiment.Get(req.Experiment)
	sc := req.scale()
	sc.Fidelity = experiment.FidelitySim
	want, err := encodeReport(e.RunGrid(req.Seed, sc, req.grids()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Result(), want) {
		t.Error("adaptive job did not converge to the byte-identical sim report")
	}

	// Terminal status: partial gone, bounds present with this job's
	// measured deltas.
	st = j.Status(true)
	if len(st.Partial) != 0 {
		t.Error("partial still attached after convergence")
	}
	if st.Bounds == nil || st.Bounds.Cells != wantCells {
		t.Fatalf("status bounds %+v, want %d cells", st.Bounds, wantCells)
	}
	if st.Bounds.MaxAbs > experiment.AnalyticCalibratedMaxAbs {
		t.Errorf("measured max error %.4f exceeds calibrated bound %v", st.Bounds.MaxAbs, experiment.AnalyticCalibratedMaxAbs)
	}
	if len(st.Bounds.PerCell) != wantCells {
		t.Errorf("bounds carry %d per-cell deltas, want %d", len(st.Bounds.PerCell), wantCells)
	}

	// The sim-tier twin was warmed: a fidelity=sim submission of the
	// same request answers from the cache, with the same bytes.
	simReq := req
	simReq.Fidelity = "sim"
	sj, status, err := s.Submit(simReq)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 || sj.StateNow() != StateDone || !sj.Status(false).Cached {
		t.Errorf("sim twin not a cache hit: status %d, state %s", status, sj.StateNow())
	}
	if !bytes.Equal(sj.Result(), want) {
		t.Error("warmed sim entry differs from the sim report")
	}
}

// TestDefaultFidelity: a server configured with DefaultFidelity
// applies it to submissions that do not name a tier, and an explicit
// tier still wins.
func TestDefaultFidelity(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultFidelity = "adaptive"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(false); st.Fidelity != "adaptive" || len(st.Partial) == 0 && st.State != StateDone {
		t.Errorf("default fidelity not applied: %+v", st)
	}
	waitDone(t, j)

	q := tinyRequest()
	q.Seed = 2
	q.Fidelity = "sim"
	j2, _, err := s.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(false); st.Fidelity != "sim" {
		t.Errorf("explicit fidelity overridden: %+v", st)
	}
	waitDone(t, j2)
}

// blockLimiter parks every fresh simulation until its context dies:
// the adaptive refinement under it can only ever finish by
// cancellation.
type blockLimiter struct{}

func (blockLimiter) Acquire(ctx context.Context) { <-ctx.Done() }

// TestAdaptiveCancelStopsRefinement: cancelling an adaptive job stops
// the refinement stream — no cells or bounds events after the
// terminal event — and leaves no background work behind (Shutdown
// returns promptly instead of waiting on orphaned simulations).
func TestAdaptiveCancelStopsRefinement(t *testing.T) {
	cfg := testConfig()
	cfg.ComputeLimit = blockLimiter{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	j, _, err := s.Submit(adaptiveRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The analytic partial must not depend on the (blocked) compute
	// limiter: it is there even though no simulation can run.
	if st := j.Status(false); len(st.Partial) == 0 {
		t.Fatal("no partial while refinement is blocked")
	}

	deadline := time.After(10 * time.Second)
	for j.StateNow() == StateQueued {
		select {
		case <-deadline:
			t.Fatal("job never started")
		case <-time.After(time.Millisecond):
		}
	}

	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("cancel failed")
	}
	waitDone(t, j)
	if got := j.StateNow(); got != StateCanceled {
		t.Fatalf("state %s after cancel, want canceled", got)
	}

	events, _ := j.EventsSince(0)
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Fatalf("event IDs not contiguous after cancel: %+v", events)
		}
		if ev.Type == EventBounds {
			t.Errorf("cancelled job published bounds: %+v", ev)
		}
		if ev.Type == EventState && ev.State.terminal() && i != len(events)-1 {
			t.Errorf("events after the terminal event: %+v", events[i+1:])
		}
	}
	if st := j.Status(false); st.Bounds != nil {
		t.Errorf("cancelled job carries bounds: %+v", st.Bounds)
	}

	// No orphans: with the lone in-flight job cancelled, a bounded
	// shutdown drains cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if ctx.Err() != nil {
		t.Error("shutdown needed the deadline: refinement work was orphaned")
	}
}
