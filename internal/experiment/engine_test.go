package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regreloc/internal/pointstore"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 37
		var mu sync.Mutex
		counts := make([]int, n)
		if err := forEach(context.Background(), workers, n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("workers=%d: forEach: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: fn(%d) ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachProgressOffset pins the cached-sweep progress contract:
// when part of a sweep resolves from the point store, those cells count
// at once and every later update is offset against the full total —
// so a consumer sees 8/12 .. 12/12, never a restart from 0/4 over the
// computed remainder alone.
func TestForEachProgressOffset(t *testing.T) {
	store, err := pointstore.New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	sc := tiny
	sc.Workers = 4
	sc.PointStore = store
	figure5Sweep.plan(1, sc, Grids{F: []int{64, 128}, R: []int{8}, L: []int{16, 32}}).Run(sc)

	var mu sync.Mutex
	var first, last, calls int
	sc.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 12 {
			t.Errorf("total = %d", total)
		}
		if calls == 0 {
			first = done
		}
		calls++
		if done > last {
			last = done
		}
	}
	// 8 of the 12 cells are stored: F=256 is new.
	r := figure5Sweep.plan(1, sc, Grids{F: []int{64, 128, 256}, R: []int{8}, L: []int{16, 32}}).Run(sc)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if first != 8 || calls != 5 || last != 12 {
		t.Errorf("progress: first = %d, calls = %d, max done = %d; want 8, 5, 12", first, calls, last)
	}
}

// TestScaleProgressHookIsPerCall checks that Scale.Progress observes
// exactly its own run's updates.
func TestScaleProgressHookIsPerCall(t *testing.T) {
	var mu sync.Mutex
	var calls, last int
	s := Scale{Workers: 3, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != 12 {
			t.Errorf("total = %d", total)
		}
		if done > last {
			last = done
		}
	}}
	if err := s.forEach(12, func(int) {}); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	if calls != 12 || last != 12 {
		t.Errorf("progress calls = %d, max done = %d", calls, last)
	}
}

// TestForEachCancellation is the satellite guarantee behind the serve
// daemon's job cancellation: a cancelled context stops the engine from
// dispatching further points, promptly, and surfaces the context error.
func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := forEach(ctx, 2, 1000, func(i int) {
		if started.Add(1) == 2 {
			cancel()
		}
		time.Sleep(2 * time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 100 {
		t.Errorf("cancellation not prompt: %d of 1000 points started", n)
	}
}

// TestForEachCompletedSweepSurvivesLateCancel pins the boundary case:
// a sweep whose every point completed is a full, valid result and must
// report success even when the context is cancelled during the final
// point — otherwise the serve daemon would discard (and refuse to
// cache) work that actually finished.
func TestForEachCompletedSweepSurvivesLateCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 8
		var completed atomic.Int64
		err := forEach(ctx, workers, n, func(i int) {
			if completed.Add(1) == n {
				cancel() // the last point cancels before returning
			}
		})
		cancel()
		if err != nil {
			t.Errorf("workers=%d: fully-completed sweep reported %v", workers, err)
		}
		if got := completed.Load(); got != n {
			t.Errorf("workers=%d: %d of %d points ran", workers, got, n)
		}
	}
}

// TestCancelledSweepReturnsPartialReport runs a real experiment with an
// already-cancelled context: the report must come back immediately with
// Err set and no (or almost no) points rather than a full grid.
func TestCancelledSweepReturnsPartialReport(t *testing.T) {
	e, ok := Get("figure5")
	if !ok {
		t.Fatal("figure5 not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r := e.Run(1, tiny.WithContext(ctx))
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("Report.Err = %v, want context.Canceled", r.Err)
	}
	if len(r.Points) != 0 {
		t.Errorf("cancelled-before-start sweep produced %d points", len(r.Points))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled sweep took %v", d)
	}
}

func TestExecutePreservesPointOrder(t *testing.T) {
	out, err := gather(Scale{Workers: 8}, 50, func(i int) []Measurement {
		return []Measurement{{L: i}, {L: i, R: 1}}
	})
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if len(out) != 100 {
		t.Fatalf("measurements = %d", len(out))
	}
	for i, m := range out {
		if m.L != i/2 || m.R != i%2 {
			t.Fatalf("measurement %d out of order: %+v", i, m)
		}
	}
}

// TestParallelMatchesSequential is the harness's core guarantee: a
// parallel sweep produces a byte-identical Report to the sequential
// run, because every point's RNG stream is derived from (seed,
// coordinates), never from execution order.
func TestParallelMatchesSequential(t *testing.T) {
	seq, par := Quick, Quick
	seq.Workers = 1
	par.Workers = 8
	for _, id := range []string{"figure5", "figure6"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		a := e.Run(1, seq)
		b := e.Run(1, par)
		if len(a.Points) != len(b.Points) {
			t.Fatalf("%s: %d sequential points vs %d parallel", id, len(a.Points), len(b.Points))
		}
		if !reflect.DeepEqual(a.Points, b.Points) {
			for i := range a.Points {
				if !reflect.DeepEqual(a.Points[i], b.Points[i]) {
					t.Fatalf("%s: point %d differs:\nseq: %+v\npar: %+v",
						id, i, a.Points[i], b.Points[i])
				}
			}
		}
	}
}

// TestSweepPointSeedsDiffer guards against a regression to the old
// correlated seeding, where every cell of a sweep replayed the
// caller's stream verbatim: identical (R, L) cells across panels (and
// across architectures) must observe different random draws. Constant-
// work workloads would mask identical run-length streams in Eff alone,
// so compare the fault counts too.
func TestSweepPointSeedsDiffer(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	a, ok1 := r.Find("F=64", "flexible", 8, 512)
	b, ok2 := r.Find("F=128", "flexible", 8, 512)
	c, ok3 := r.Find("F=256", "flexible", 8, 512)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing cells")
	}
	if a.Res.Faults == b.Res.Faults && b.Res.Faults == c.Res.Faults {
		t.Errorf("F=64/128/256 at (R=8, L=512) drew identical fault counts (%d): streams correlated",
			a.Res.Faults)
	}
}

// TestCorrectedSeedingPreservesPaperShapes pins the paper's qualitative
// results at the documented reproduction settings (Quick scale, default
// seed): the Figure 5 flexible-beats-fixed invariant below saturation,
// and the Figure 6(a) crossover — fixed wins marginally only at F=64
// and large L, while the larger register files stay flexible-favoured.
func TestCorrectedSeedingPreservesPaperShapes(t *testing.T) {
	e5, _ := Get("figure5")
	r5 := e5.Run(1, Quick)
	for _, panel := range r5.Panels() {
		for _, rl := range []int{8, 32} {
			for _, lat := range []int{256, 512} {
				fx, ok1 := r5.Find(panel, "fixed", rl, lat)
				fl, ok2 := r5.Find(panel, "flexible", rl, lat)
				if !ok1 || !ok2 {
					t.Fatalf("figure5 missing %s R=%d L=%d", panel, rl, lat)
				}
				if fl.Eff < fx.Eff-0.01 {
					t.Errorf("figure5 %s R=%d L=%d: flexible %.3f < fixed %.3f",
						panel, rl, lat, fl.Eff, fx.Eff)
				}
			}
		}
	}

	e6, _ := Get("figure6")
	r6 := e6.Run(1, Quick)
	// The churn crossover: fixed ahead at F=64, R=32, L=1024...
	fx, _ := r6.Find("F=64", "fixed", 32, 1024)
	fl, _ := r6.Find("F=64", "flexible", 32, 1024)
	if fl.Eff >= fx.Eff {
		t.Errorf("figure6 F=64 R=32 L=1024: flexible %.3f >= fixed %.3f; crossover lost",
			fl.Eff, fx.Eff)
	}
	// ...but only marginally (the paper: "slightly better performance").
	if fx.Eff > 1.5*fl.Eff {
		t.Errorf("figure6 F=64 crossover not marginal: fixed %.3f vs flexible %.3f", fx.Eff, fl.Eff)
	}
	// The larger files stay flexible-favoured away from the extreme
	// corner (EXPERIMENTS.md: F=128 allows one marginal fixed win at
	// R=32, L=1024; here we pin the R=128 column and the F=256 corner).
	for _, panel := range []string{"F=128", "F=256"} {
		fx, _ := r6.Find(panel, "fixed", 128, 1024)
		fl, _ := r6.Find(panel, "flexible", 128, 1024)
		if fl.Eff < fx.Eff-0.01 {
			t.Errorf("figure6 %s R=128 L=1024: flexible %.3f < fixed %.3f", panel, fl.Eff, fx.Eff)
		}
	}
	fx, _ = r6.Find("F=256", "fixed", 32, 1024)
	fl, _ = r6.Find("F=256", "flexible", 32, 1024)
	if fl.Eff < fx.Eff-0.01 {
		t.Errorf("figure6 F=256 R=32 L=1024: flexible %.3f < fixed %.3f", fl.Eff, fx.Eff)
	}
	// And at F=128 the corner stays marginal in whichever direction.
	fx, _ = r6.Find("F=128", "fixed", 32, 1024)
	fl, _ = r6.Find("F=128", "flexible", 32, 1024)
	if fx.Eff > 1.2*fl.Eff {
		t.Errorf("figure6 F=128 corner not marginal: fixed %.3f vs flexible %.3f", fx.Eff, fl.Eff)
	}
}
