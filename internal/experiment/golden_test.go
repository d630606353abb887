package experiment_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

var updateGolden = flag.Bool("update", false, "rewrite the quick-scale golden reports under testdata/ instead of comparing against them")

// goldenPath names the pinned quick-scale seed-1 CSV report of one
// golden row: an experiment ID, suffixed with the fidelity tier for
// rows that are not measured on the simulator.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+"_quick_seed1.golden.csv")
}

// TestQuickGolden pins quick-scale seed-1 reports to exact bytes, one
// experiment per simulator path: byte identity for a given seed is a
// hard contract. The serve daemon's content-addressed caches and the
// parallel-vs-sequential sweep guarantee both depend on it, so any
// optimization that changes these bytes — however slightly — is a
// correctness bug, not a tuning choice. Each row covers a path the
// others miss:
//
//   - figure5: constant latency, never-unload (the node simulator's
//     base path; pinned since the allocation-free rework).
//   - figure6: exponential latency and the two-phase unload policy.
//   - combined: a latency mixture.
//   - scaling: the network co-simulation's fixed point (the event
//     queue of network.Simulate).
//   - figure5-machine: the Figure 5 grid on the instruction-level
//     managed machine tier.
//   - figure5-analytic: the Figure 5 grid on the closed-form tier.
//
// To regenerate after an INTENTIONAL behaviour change (new columns, a
// model fix), run
//
//	go test ./internal/experiment -run TestQuickGolden -update
//
// and say why in the commit message.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweeps are a few seconds; skipped in -short")
	}
	for _, row := range []struct {
		name, id string
		fid      experiment.Fidelity
	}{
		{"figure5", "figure5", experiment.FidelitySim},
		{"figure6", "figure6", experiment.FidelitySim},
		{"combined", "combined", experiment.FidelitySim},
		{"scaling", "scaling", experiment.FidelitySim},
		{"figure5-machine", "figure5", experiment.FidelityMachine},
		{"figure5-analytic", "figure5", experiment.FidelityAnalytic},
	} {
		t.Run(row.name, func(t *testing.T) {
			e, ok := experiment.Get(row.id)
			if !ok {
				t.Fatalf("%s experiment not registered", row.id)
			}
			sc := experiment.Quick
			sc.Fidelity = row.fid
			r := e.Run(1, sc)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			got := []byte(experiment.CSV(r))
			if *updateGolden {
				if err := os.WriteFile(goldenPath(row.name), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(row.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s quick seed=1 report is not byte-identical to the golden file (got %d bytes, want %d); simulation results drifted",
					row.name, len(got), len(want))
			}
		})
	}
}

// TestFigure5GoldenFromPointCache extends the golden contract to the
// memoized path: a report assembled from point-store entries — encoded,
// stored, evicted to disk, reloaded, and decoded — must be
// byte-identical to the cold run above, at any worker count. This is
// what makes point-granular caching sound: if assembly-from-cache could
// drift even one byte, a cache hit would be a wrong answer.
func TestFigure5GoldenFromPointCache(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweeps are a few seconds; skipped in -short")
	}
	want, err := os.ReadFile(goldenPath("figure5"))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := experiment.Get("figure5")
	if !ok {
		t.Fatal("figure5 experiment not registered")
	}

	// Cold run with an empty store: must simulate everything, produce
	// golden bytes, and populate the store.
	dir := t.TempDir()
	store, err := pointstore.New(8<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := experiment.Quick
	cold.PointStore = store
	r := e.Run(1, cold)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := []byte(experiment.CSV(r)); !bytes.Equal(got, want) {
		t.Fatalf("cold run through the point store drifted from golden (got %d bytes, want %d)",
			len(got), len(want))
	}
	if c := store.Counters(); c.Misses != int64(len(r.Points)) || c.Hits != 0 {
		t.Fatalf("cold run counters = %+v, want %d misses, 0 hits", c, len(r.Points))
	}

	// Persist and reload so warm assembly also crosses the disk tier's
	// checksum-verified entries, not just memory. Close releases the
	// dir's advisory lock so the warm stores below can claim it.
	if err := store.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm runs across worker AND shard counts: every point resolves
	// from the store (zero new simulations) and the assembled report is
	// still byte-identical — order-independent by construction, and
	// independent of how keys distribute across store shards (the disk
	// tier written by one shard count is read back under another).
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			warmStore, err := pointstore.NewWith(8<<20, dir, pointstore.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if warmStore.Shards() != shards {
				t.Fatalf("store has %d shards, want %d", warmStore.Shards(), shards)
			}
			warm := experiment.Quick
			warm.Workers = workers
			warm.PointStore = warmStore
			r := e.Run(1, warm)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if got := []byte(experiment.CSV(r)); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d shards=%d: cache-assembled report drifted from golden (got %d bytes, want %d)",
					workers, shards, len(got), len(want))
			}
			if c := warmStore.Counters(); c.Misses != 0 || c.Hits != int64(len(r.Points)) {
				t.Fatalf("workers=%d shards=%d: warm run counters = %+v, want all %d points served as hits",
					workers, shards, c, len(r.Points))
			}
			if err := warmStore.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
