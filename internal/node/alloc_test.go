package node

import (
	"runtime"
	"testing"

	"regreloc/internal/policy"
	"regreloc/internal/testutil"
	"regreloc/internal/workload"
)

// TestRunSteadyStateAllocs guards the whole-run allocation budget.
// Before the pooled-state/typed-queue rework a run of this shape
// allocated once per simulated fault (thousands of allocations); with
// the statePool, recycled thread population, and value-typed event
// queue, steady-state runs need only a handful of fixed allocations
// (the derived RNG source, result assembly). The generous bound still
// fails by two orders of magnitude if any per-fault allocation comes
// back. The byte budget catches what the count cannot: a sampler guide
// table built per run instead of memoized is one allocation of up to
// 128 KiB.
func TestRunSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	cases := []struct {
		cfg  Config
		spec workload.Spec
	}{
		{FlexibleConfig(128, policy.Never{}, 6), workload.CacheFaults(32, 256, workload.PaperCtxSize(), 16, 4000)},
		{FlexibleConfig(128, policy.TwoPhase{}, 8), workload.SyncFaults(32, 512, workload.PaperCtxSize(), 16, 4000)},
	}
	for _, c := range cases {
		Run(c.cfg, c.spec, 1) // warm the state pool and the table memo
		allocs := testing.AllocsPerRun(20, func() {
			Run(c.cfg, c.spec, 1)
		})
		if allocs > 64 {
			t.Errorf("%s: Run allocated %.0f times in steady state; want <= 64 (per-fault allocation regression?)", c.spec.Name, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Run(c.cfg, c.spec, 1)
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 16<<10 {
			t.Errorf("%s: Run allocated %d bytes in steady state; want <= 16 KiB (table built per run?)", c.spec.Name, perRun)
		}
	}
}
