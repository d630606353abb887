package experiment

import (
	"fmt"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
)

// TestLoadedProgramsPassTheCheck: every program an experiment loads
// passes the loader's check (paper Section 2.4) at the context it runs
// in. The Figure 3 and Figure 4 harnesses load at the 8-register
// contexts they spawn; the machine tier's worker, at every R and L the
// grids reach and at the clamp limits, and managed-isa's worker, at
// each of its latencies, load through NewManager into 16-register
// contexts.
func TestLoadedProgramsPassTheCheck(t *testing.T) {
	newKernel := func() *kernel.Kernel {
		return kernel.New(machine.New(machine.Config{Registers: 128}), alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	}
	if _, err := newKernel().LoadUserChecked(switchHarness, harnessCtx); err != nil {
		t.Errorf("figure3 harness: %v", err)
	}
	for _, n := range unloadSizes {
		k := newKernel()
		victim, err := k.Spawn("victim", 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.LoadUserChecked(unloadHarness(victim.Ctx.RRM(), n), harnessCtx); err != nil {
			t.Errorf("figure4 harness at C=%d: %v", n, err)
		}
	}
	managed := func(name, src string) {
		mgr, err := kernel.NewManager(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		mgr.Release()
	}
	// Distinct cells only: each is an image in NewManager's bounded memo.
	cells := map[[2]int]bool{{1, 1}: true, {machineMaxRun, machineMaxLat}: true}
	for _, rs := range [][]int{cacheRs, syncRs} {
		for _, ls := range [][]int{cacheLs, syncLs} {
			for _, r := range rs {
				for _, l := range ls {
					cells[[2]int{r, l}] = true
				}
			}
		}
	}
	for c := range cells {
		managed(fmt.Sprintf("machine worker at R=%d, L=%d", c[0], c[1]), machineWorkerSource(c[0], c[1]))
	}
	for _, l := range managedLats {
		managed(fmt.Sprintf("managed-isa worker at L=%d", l), kernel.WorkerSourceLatency(l))
	}
}
