package experiment

import (
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"regreloc/internal/pointstore"
	"regreloc/internal/policy"
	"regreloc/internal/testutil"
)

// TestCrossTierDecodeRejected is the cross-tier pollution regression
// test: bytes encoded at one fidelity tier must never decode as
// another tier's measurements. Silent cross-tier reads would serve
// model approximations as simulator ground truth.
func TestCrossTierDecodeRejected(t *testing.T) {
	tiers := []Fidelity{FidelitySim, FidelityMachine, FidelityAnalytic}
	for _, enc := range tiers {
		data := encodeMeasurements(enc, sampleMeasurements())
		for _, dec := range tiers {
			got, err := decodeMeasurements(dec, data)
			if enc == dec {
				if err != nil {
					t.Errorf("same-tier decode (%s) failed: %v", enc, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("bytes encoded at %s decoded as %s: %v", enc, dec, got)
			}
		}
	}
}

// TestPointKeySeparatesTiers: the same cell at different tiers must
// have different content addresses, so tiers cannot share store
// entries even before the codec's tag check.
func TestPointKeySeparatesTiers(t *testing.T) {
	keys := map[string]Fidelity{}
	for _, fid := range []Fidelity{FidelitySim, FidelityMachine, FidelityAnalytic} {
		sc := Quick
		sc.Fidelity = fid
		k := pointKey("figure5", 1, sc, 64, 8, 16, "fixed")
		if prev, dup := keys[k]; dup {
			t.Fatalf("tiers %s and %s share point key %s", prev, fid, k)
		}
		keys[k] = fid
	}
	// The zero value is the sim tier: keys must be identical so
	// existing stores stay valid for fidelity-unaware callers.
	def := Quick
	sim := Quick
	sim.Fidelity = FidelitySim
	if pointKey("figure5", 1, def, 64, 8, 16, "fixed") != pointKey("figure5", 1, sim, 64, 8, 16, "fixed") {
		t.Error("zero-value fidelity keys differ from explicit sim keys")
	}
}

// TestCrossTierStoreIsolation runs the same grid through one shared
// point store at the analytic then the sim tier and checks the sim
// report is byte-identical to a store-less cold run: nothing the
// analytic pass cached may leak into the sim assembly.
func TestCrossTierStoreIsolation(t *testing.T) {
	e, ok := Get("figure5")
	if !ok {
		t.Fatal("figure5 not registered")
	}
	g := Grids{F: []int{64}, R: []int{8}, L: []int{16, 32}}

	cold := e.RunGrid(1, Quick, g)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}

	store, err := pointstore.New(1<<20, filepath.Join(t.TempDir(), "pts"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ana := Quick
	ana.Fidelity = FidelityAnalytic
	ana.PointStore = store
	if rep := e.RunGrid(1, ana, g); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	anaEntries := store.Len()
	if anaEntries == 0 {
		t.Fatal("analytic run stored no points")
	}

	sim := Quick
	sim.PointStore = store
	warm := e.RunGrid(1, sim, g)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if got, want := CSV(warm), CSV(cold); got != want {
		t.Errorf("sim report through analytic-warmed store differs from cold run:\n got %q\nwant %q", got, want)
	}
	if store.Len() != anaEntries*2 {
		t.Errorf("store has %d entries after both tiers, want %d (each tier its own)", store.Len(), anaEntries*2)
	}
}

// TestAnalyticBackendModel pins the analytic tier to a hand-computed
// cell: F=128 fixed slots of 32 registers hold 4 contexts; with
// R=8, L=16, S=6 the saturation efficiency R/(R+S) = 4/7 wins over
// the linear regime 4*8/30.
func TestAnalyticBackendModel(t *testing.T) {
	sc := Quick
	sc.Fidelity = FidelityAnalytic
	fixedOnly := &gridSweep{id: "figure5", archs: []archSpec{fixedArch(6, policy.Never{})}, spec: cacheFaultSpec}
	r := fixedOnly.plan(1, sc, Grids{F: []int{128}, R: []int{8}, L: []int{16}}).Run(sc)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	ms := r.Points
	if len(ms) != 1 {
		t.Fatalf("got %d measurements, want 1", len(ms))
	}
	want := 8.0 / 14.0
	if math.Abs(ms[0].Eff-want) > 1e-9 {
		t.Errorf("analytic eff = %v, want %v", ms[0].Eff, want)
	}
	if ms[0].Res.AvgResident != 4 {
		t.Errorf("resident contexts = %v, want 4 (128 regs / 32-reg slots)", ms[0].Res.AvgResident)
	}
}

// TestMachineBackendDeterministic: the machine tier has no RNG, so
// two runs of the same cell must agree exactly and land in (0, 1).
func TestMachineBackendDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("machine execution in -short")
	}
	a, b := runMachineCellForTest(t), runMachineCellForTest(t)
	if a != b {
		t.Errorf("machine tier not deterministic: %v vs %v", a, b)
	}
	if !(a > 0 && a < 1) {
		t.Errorf("machine efficiency %v outside (0, 1)", a)
	}
}

func runMachineCellForTest(t *testing.T) float64 {
	t.Helper()
	eff, err := runMachineCell(32, 100)
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

// TestMachineCellAllocs pins a warm machine cell's allocations. A
// cell reuses a pooled machine (its 256 KiB memory and the predecode
// cache its code has grown) and the memoized kernel image, so what
// remains is the manager's own bookkeeping: about 50 small allocations
// and 2.5 KB. Building a machine per cell costs about 300 KB, most of
// it the memory; assembling the image per cell, about 1,300
// allocations and 220 KB.
func TestMachineCellAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	cell := func() {
		if _, err := runMachineCell(32, 128); err != nil {
			t.Fatal(err)
		}
	}
	// One P throughout, as AllocsPerRun runs: the pool keeps a machine
	// per P, and the byte loop must find the one the warm-up returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cell() // warm the machine pool and the image memo
	if allocs := testing.AllocsPerRun(20, cell); allocs > 100 {
		t.Errorf("warm machine cell allocated %.0f times; want <= 100", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cell()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs; perCell > 16<<10 {
		t.Errorf("warm machine cell allocated %d bytes; want <= 16 KiB (machine or image rebuilt per cell?)", perCell)
	}
}

// TestMachineCellsConcurrent runs machine cells from several
// goroutines at once, as parallel sweep workers do, and checks every
// answer against a sequential run. The workers share the machine pool
// and the image memo; run it with -race.
func TestMachineCellsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("machine execution in -short")
	}
	type cell struct{ r, l int }
	var cells []cell
	for _, r := range []int{8, 32} {
		for _, l := range []int{16, 64, 128} {
			cells = append(cells, cell{r, l})
		}
	}
	want := make([]float64, len(cells))
	for i, c := range cells {
		eff, err := runMachineCell(c.r, c.l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = eff
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different cell, so different
			// sources meet in the memo and the pool at once.
			for k := range cells {
				i := (k + w) % len(cells)
				eff, err := runMachineCell(cells[i].r, cells[i].l)
				if err != nil {
					t.Error(err)
					return
				}
				if eff != want[i] {
					t.Errorf("worker %d, R=%d L=%d: %v concurrently, %v sequentially",
						w, cells[i].r, cells[i].l, eff, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFidelityErrorExperiment: the calibration sweep produces one
// delta per grid cell, all within [0, 1] and under the published
// calibrated bound on a small grid.
func TestFidelityErrorExperiment(t *testing.T) {
	e, ok := Get("fidelity-error")
	if !ok {
		t.Fatal("fidelity-error not registered")
	}
	rep := e.RunGrid(1, Quick, Grids{F: []int{128}, R: []int{8, 32}, L: []int{16, 64}})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if want := 2 * 2 * 2; len(rep.Points) != want { // 2 archs
		t.Fatalf("got %d cells, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Eff < 0 || p.Eff > 1 {
			t.Errorf("cell %+v delta %v outside [0, 1]", p, p.Eff)
		}
		if p.Eff > AnalyticCalibratedMaxAbs {
			t.Errorf("cell (%s %s R=%d L=%d) delta %.4f exceeds calibrated bound %v",
				p.Panel, p.Arch, p.R, p.L, p.Eff, AnalyticCalibratedMaxAbs)
		}
	}
}
