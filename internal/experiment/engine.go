package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the experiment execution engine's core: a bounded
// worker pool. Grid sweeps reach it through a Plan (plan.go), which
// resolves each cell from the point store, the remote tier or local
// computation; experiments whose measurements are not grid cells use
// gather or Scale.forEach directly. Two properties make parallel runs
// bit-identical to sequential ones:
//
//   - Each cell carries its own RNG seed, derived (rng.DeriveSeed)
//     from the experiment seed and the cell's coordinates — never from
//     execution order. Sweep cells are therefore also statistically
//     independent, instead of replaying one stream per cell.
//   - Results are written by index and flattened in list order, so
//     Report.Points stays panel-major regardless of worker count.
//
// Those same properties make cells memoizable: a cell's measurements
// are a pure function of its content address (pointKey), so a sweep
// assembled from stored cells is byte-identical to a cold run.
//
// The engine is also cancellable: Scale carries a context
// (Scale.WithContext), checked between iterations, so a long sweep
// whose consumer has gone away stops burning worker cycles mid-grid. A
// cancelled run returns the completed cells plus the context error.

// acquire calls the scale's ComputeLimit hook, if any, before one
// fresh local measurement. Store hits, joined flights and remote
// results do not call it.
func (s Scale) acquire() {
	if s.ComputeLimit != nil {
		s.ComputeLimit.Acquire(s.Context())
	}
}

// gather runs n independent local measurements on the scale's worker
// pool, each paying the compute limit and landing on OnPoint, and
// flattens them in index order. Experiments whose measurements are not
// grid cells (nothing to address or share) use it; a cancelled run
// returns the completed ones with the context error.
func gather(scale Scale, n int, measure func(i int) []Measurement) ([]Measurement, error) {
	parts := make([][]Measurement, n)
	err := scale.forEach(n, func(i int) {
		scale.acquire()
		parts[i] = measure(i)
		if scale.OnPoint != nil {
			scale.OnPoint(parts[i])
		}
	})
	return flatten(parts), err
}

// flatten concatenates per-cell measurements in cell order; cells not
// run (nil) contribute nothing.
func flatten(parts [][]Measurement) []Measurement {
	n := 0
	for _, ms := range parts {
		n += len(ms)
	}
	if n == 0 {
		return nil
	}
	out := make([]Measurement, 0, n)
	for _, ms := range parts {
		out = append(out, ms...)
	}
	return out
}

// forEach runs fn(0), ..., fn(n-1) on the scale's worker pool,
// reporting completion counts to the scale's progress hook and
// honouring its context. Iterations must be independent: fn is called
// concurrently with distinct arguments and must not touch shared
// state. Experiments whose cells produce notes or need error handling
// use it directly with an indexed results slice.
func (s Scale) forEach(n int, fn func(i int)) error {
	progress := s.progressHook()
	if progress == nil {
		return forEach(s.Context(), s.workers(), n, fn)
	}
	var done atomic.Int64
	return forEach(s.Context(), s.workers(), n, func(i int) {
		fn(i)
		progress(int(done.Add(1)), n)
	})
}

// forEach is the engine core. workers <= 0 means one per core. The
// context is polled between iterations: already-running iterations
// complete, unstarted ones are abandoned, and the context error is
// returned.
func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		// Every iteration ran: the sweep is complete and valid even if
		// the context was cancelled during the final point.
		return nil
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if int(done.Load()) == n {
		// All points completed despite any late cancellation — report
		// success so the full result stays usable (and cacheable).
		return nil
	}
	return ctx.Err()
}

// progressHook wraps Scale.Progress so calls are serialized by a
// mutex and hooks need no locking of their own. With concurrent
// workers the done values may arrive slightly out of order, and cells
// resolved together (a sweep's stored cells) count in one step; no
// value repeats, and the largest is the total.
func (s Scale) progressHook() func(done, total int) {
	perCall := s.Progress
	if perCall == nil {
		return nil
	}
	var mu sync.Mutex
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		perCall(done, total)
	}
}
