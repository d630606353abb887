package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests pin latent serving bugs; each fails against the code
// before its fix.

// TestShutdownNeverStartedFinalizesQueued covers the hung-waiter bug:
// Shutdown on a server whose Start was never called has no workers to
// drain the queue, so queued jobs' Done channels never closed and
// waiters blocked forever. The fix drains and finalizes the backlog as
// canceled.
func TestShutdownNeverStartedFinalizesQueued(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the job sits in the queue forever.
	j, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown of a never-started server took %v", d)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("queued job's Done channel never closed (waiters would hang)")
	}
	if got := j.StateNow(); got != StateCanceled {
		t.Fatalf("drained job state = %s, want canceled", got)
	}
	if _, status, _ := s.Submit(tinyRequest()); status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status = %d, want 503", status)
	}
}

// TestShutdownIndexErrorReleasesStore covers the skipped-close bug
// class: a Shutdown that returned on the index save error would leave
// the store open and its directory locked, so the restarted daemon
// could not claim its own dir. The save error must surface, naming
// the point-store index, and the lock must still be released.
func TestShutdownIndexErrorReleasesStore(t *testing.T) {
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

	// Block the index write: its temp path is a directory, so
	// os.WriteFile fails regardless of permissions.
	blocker := filepath.Join(dir, "points.json.tmp")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	shutdownErr := s.Shutdown(context.Background())
	if shutdownErr == nil {
		t.Fatal("shutdown swallowed the index error")
	}
	if !strings.Contains(shutdownErr.Error(), "point-store index") {
		t.Errorf("shutdown error does not name the point-store index: %v", shutdownErr)
	}

	// The failed save must not strand the directory lock.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("store dir still locked after a failed save: %v", err)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestInlineAssemblyEvictionHammer races concurrent submissions (some
// inline-assembled from their plans' bytes, some queued),
// cancellations, and a point-store eviction storm. Run under -race in
// CI; any double-finalize, double-release of a tenant slot, or lost
// Done close shows up here. That a held plan survives the eviction of
// every entry it probed is pinned at the engine level
// (experiment.TestHeldPlanSurvivesEviction).
func TestInlineAssemblyEvictionHammer(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = 1 << 18
	cfg.QueueCap = 64
	cfg.Workers = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	// Warm one grid; the hammer submits its reorderings, which are new
	// report keys over stored cells and so reach the inline path unless
	// the storm evicted their cells before the probe.
	orders := [][]int{{32, 64, 128}, {32, 128, 64}, {64, 32, 128}, {64, 128, 32}, {128, 32, 64}, {128, 64, 32}}
	warm := tinyRequest()
	warm.F = orders[0]
	wj, _, err := s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, wj)

	stop := make(chan struct{})
	var evict sync.WaitGroup
	evict.Add(1)
	go func() {
		defer evict.Done()
		junk := bytes.Repeat([]byte("e"), 16<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.points.Put(fmt.Sprintf("evict%d", i%64), junk)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				req := tinyRequest()
				req.F = orders[1+(g+i)%(len(orders)-1)]
				j, status, err := s.Submit(req)
				if err != nil {
					if status == http.StatusTooManyRequests {
						continue
					}
					t.Errorf("submit: status=%d err=%v", status, err)
					return
				}
				if i%4 == 0 {
					go s.Cancel(j.ID)
				}
				waitDone(t, j)
				if got := j.StateNow(); !got.terminal() {
					t.Errorf("job %s non-terminal after Done: %s", j.ID, got)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	evict.Wait()
}
