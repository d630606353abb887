package experiment_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// remoteFunc adapts a function to experiment.PointComputer.
type remoteFunc func(ctx context.Context, sweep experiment.RemoteSweep, emit func(key string, data []byte)) error

func (f remoteFunc) ComputePoints(ctx context.Context, sweep experiment.RemoteSweep, emit func(key string, data []byte)) error {
	return f(ctx, sweep, emit)
}

var remoteTestGrids = experiment.Grids{F: []int{32, 64}, R: []int{8}, L: []int{16}}

func runFigure5Grid(t *testing.T, sc experiment.Scale) string {
	t.Helper()
	e, ok := experiment.Get("figure5")
	if !ok {
		t.Fatal("figure5 not registered")
	}
	r := e.RunGrid(1, sc, remoteTestGrids)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return experiment.CSV(r)
}

// TestRemoteComputerAcceleratesSweep pins the happy path: a remote
// tier that answers every offered point via the experiment's own
// ComputeCells yields a report byte-identical to a purely local run,
// with zero points left for the local pool.
func TestRemoteComputerAcceleratesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	want := runFigure5Grid(t, experiment.Quick)

	e, _ := experiment.Get("figure5")
	var offered, answered int
	remote := remoteFunc(func(ctx context.Context, sweep experiment.RemoteSweep, emit func(string, []byte)) error {
		offered += len(sweep.Points)
		cells := make([]experiment.Cell, len(sweep.Points))
		for i, p := range sweep.Points {
			cells[i] = experiment.Cell{F: p.F, R: p.R, L: p.L, Arch: p.Arch}
		}
		sc := experiment.Scale{Threads: sweep.Threads, WorkRuns: sweep.WorkRuns, MinWork: sweep.MinWork}.WithContext(ctx)
		results, err := e.ComputeCells(sweep.Seed, sc, cells)
		if err != nil {
			return err
		}
		for _, cr := range results {
			answered++
			emit(cr.Key, cr.Data)
		}
		return nil
	})

	sc := experiment.Quick
	sc.Remote = remote
	got := runFigure5Grid(t, sc)
	if got != want {
		t.Fatal("remote-accelerated report differs from local run")
	}
	if offered == 0 || answered != offered {
		t.Fatalf("remote offered %d points, answered %d", offered, answered)
	}
}

// TestRemoteGarbageCannotCorrupt is the safety half of the remote
// contract: a computer that answers every key with undecodable bytes
// — and invents keys the sweep never asked for — changes nothing. The
// engine rejects what fails to decode, ignores unknown keys, and
// simulates the sweep locally. The garbage includes an entry that is
// well formed except for a negative cycle count, which must be
// rejected rather than panic the emitting goroutine.
func TestRemoteGarbageCannotCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	want := runFigure5Grid(t, experiment.Quick)

	for name, garbage := range map[string][]byte{
		"undecodable":     []byte("not a measurement encoding"),
		"negative charge": experiment.NegativeChargeEntry(),
	} {
		remote := remoteFunc(func(ctx context.Context, sweep experiment.RemoteSweep, emit func(string, []byte)) error {
			for _, p := range sweep.Points {
				emit(p.Key, garbage)
			}
			emit("key-that-was-never-requested", []byte{1, 2, 3})
			return nil
		})
		sc := experiment.Quick
		sc.Remote = remote
		if got := runFigure5Grid(t, sc); got != want {
			t.Fatalf("%s remote results corrupted the report", name)
		}
	}
}

// TestRemoteErrorFallsBackLocally: a remote tier that fails outright
// (network partition, no healthy workers) costs nothing but time.
func TestRemoteErrorFallsBackLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	want := runFigure5Grid(t, experiment.Quick)

	remote := remoteFunc(func(ctx context.Context, sweep experiment.RemoteSweep, emit func(string, []byte)) error {
		return context.DeadlineExceeded
	})
	sc := experiment.Quick
	sc.Remote = remote
	if got := runFigure5Grid(t, sc); got != want {
		t.Fatal("a failed remote tier changed the report")
	}
}

// TestRemoteProgressHookRunsOutsideResultsLock is the regression test
// for the blocking-progress-hook bug: emit used to invoke the
// user-facing progress hook while holding the sweep's results mutex,
// so one slow consumer stalled every concurrent emit (and, because
// the store Put also sat behind the hook, nothing landed in the point
// store until the hook returned). The hook here blocks until the
// store holds a second remote result — which can only appear if other
// emits keep making progress while the hook is blocked. On pre-fix
// code the second emit deadlocks on the results mutex and the hook
// times out.
func TestRemoteProgressHookRunsOutsideResultsLock(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	e, _ := experiment.Get("figure5")
	store, err := pointstore.New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}

	// Emit every result concurrently, as the cluster client does from
	// its per-batch goroutines.
	remote := remoteFunc(func(ctx context.Context, sweep experiment.RemoteSweep, emit func(string, []byte)) error {
		cells := make([]experiment.Cell, len(sweep.Points))
		for i, p := range sweep.Points {
			cells[i] = experiment.Cell{F: p.F, R: p.R, L: p.L, Arch: p.Arch}
		}
		sc := experiment.Scale{Threads: sweep.Threads, WorkRuns: sweep.WorkRuns, MinWork: sweep.MinWork}.WithContext(ctx)
		results, err := e.ComputeCells(sweep.Seed, sc, cells)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for _, cr := range results {
			wg.Add(1)
			go func(cr experiment.CellResult) {
				defer wg.Done()
				emit(cr.Key, cr.Data)
			}(cr)
		}
		wg.Wait()
		return nil
	})

	sc := experiment.Quick
	sc.Remote = remote
	sc.PointStore = store
	hookStalled := false
	sc.Progress = func(done, total int) {
		// Block until a second remote result has been stored. Only a
		// concurrent emit can store it, so this detects an emit holding
		// the results mutex across the hook.
		deadline := time.Now().Add(10 * time.Second)
		for store.Len() < 2 {
			if time.Now().After(deadline) {
				hookStalled = true
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	runFigure5Grid(t, sc)
	if hookStalled {
		t.Fatal("progress hook saw no concurrent emits: emit holds the results mutex while calling the hook")
	}
}

// TestComputeCellsRejectsUnknownArch pins the worker-side validation
// seam: a cell naming an architecture the experiment does not sweep is
// an error, not a silent skip.
func TestComputeCellsRejectsUnknownArch(t *testing.T) {
	e, _ := experiment.Get("figure5")
	if e.ComputeCells == nil {
		t.Fatal("figure5 has no ComputeCells")
	}
	_, err := e.ComputeCells(1, experiment.Quick, []experiment.Cell{{F: 64, R: 8, L: 16, Arch: "no-such-arch"}})
	if err == nil {
		t.Fatal("unknown arch accepted")
	}
}
