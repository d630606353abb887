package experiment_test

import (
	"bytes"
	"fmt"
	"testing"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// TestHeldPlanSurvivesEviction pins what makes inline assembly safe: a
// probed plan holds the bytes it found, so a memory-only store losing
// every one of those entries before the plan runs costs nothing — the
// run computes no cell and assembles exactly the storeless report.
func TestHeldPlanSurvivesEviction(t *testing.T) {
	e, ok := experiment.Get("figure5")
	if !ok || e.Plan == nil {
		t.Fatal("figure5 has no Plan")
	}
	g := experiment.Grids{F: []int{32, 64}, R: []int{8, 16}, L: []int{16}}
	store, err := pointstore.New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	warm := experiment.Quick
	warm.PointStore = store
	if r := e.RunGrid(7, warm, g); r.Err != nil {
		t.Fatal(r.Err)
	}

	plan := e.Plan(7, experiment.Quick, g)
	plan.Probe(store)
	if plan.Cached() != plan.Len() || plan.Len() != 8 {
		t.Fatalf("probe found %d of %d cells, want 8 of 8", plan.Cached(), plan.Len())
	}
	junk := bytes.Repeat([]byte("x"), 64<<10)
	for i := 0; i < 64; i++ {
		store.Put(fmt.Sprintf("junk%d", i), junk)
	}
	if n := store.Covered(e.PointKeys(7, experiment.Quick, g)); n != 0 {
		t.Fatalf("%d probed entries survived the flood, want 0", n)
	}

	misses := store.Counters().Misses
	got := plan.Run(warm)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if m := store.Counters().Misses - misses; m != 0 {
		t.Errorf("held plan computed %d cells, want 0", m)
	}
	if want := e.RunGrid(7, experiment.Quick, g); experiment.CSV(got) != experiment.CSV(want) {
		t.Error("report assembled from the held plan differs from a storeless run")
	}
}
