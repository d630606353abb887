package experiment

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// tiny is an even smaller scale than Quick, for unit tests that run
// many experiments.
var tiny = Scale{Threads: 16, WorkRuns: 50, MinWork: 1000}

func TestRegistryComplete(t *testing.T) {
	// Every table/figure from DESIGN.md's experiment index must be
	// registered.
	want := []string{
		"figure3", "figure4", "figure5", "figure6", "figure6a-cheap",
		"homogeneous-c8", "homogeneous-c16", "combined",
		"ablation-policy", "ablation-alloc", "ablation-rounding",
		"cache-interference", "scaling", "mixed-granularity", "ablation-dribble",
		"managed-isa", "granularity", "analytic",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(IDs()) {
		t.Error("All and IDs disagree")
	}
	if _, ok := Get("nonexistent"); ok {
		t.Error("Get returned a phantom experiment")
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	if len(r.Points) != 3*3*6*2 {
		t.Fatalf("figure5 has %d points", len(r.Points))
	}
	// The paper's claim: register relocation consistently outperforms
	// fixed contexts below saturation. Check the clearly-unsaturated
	// cells (small R, large L).
	for _, panel := range r.Panels() {
		for _, rl := range []int{8, 32} {
			for _, lat := range []int{256, 512} {
				fx, ok1 := r.Find(panel, "fixed", rl, lat)
				fl, ok2 := r.Find(panel, "flexible", rl, lat)
				if !ok1 || !ok2 {
					t.Fatalf("missing point %s R=%d L=%d", panel, rl, lat)
				}
				if fl.Eff < fx.Eff-0.01 {
					t.Errorf("%s R=%d L=%d: flexible %.3f < fixed %.3f",
						panel, rl, lat, fl.Eff, fx.Eff)
				}
			}
		}
	}
}

func TestFigure6aCrossover(t *testing.T) {
	// The paper's only exception: at F=64, fixed contexts marginally
	// outperform register relocation for large L (allocation churn).
	e, _ := Get("figure6")
	r := e.Run(1, tiny)
	fx, _ := r.Find("F=64", "fixed", 32, 1024)
	fl, _ := r.Find("F=64", "flexible", 32, 1024)
	if fl.Eff >= fx.Eff {
		t.Errorf("F=64 R=32 L=1024: flexible %.3f >= fixed %.3f; the 6(a) crossover is missing",
			fl.Eff, fx.Eff)
	}
	// And flexible wins at small L even at F=64.
	fx, _ = r.Find("F=64", "fixed", 32, 64)
	fl, _ = r.Find("F=64", "flexible", 32, 64)
	if fl.Eff <= fx.Eff {
		t.Errorf("F=64 R=32 L=64: flexible %.3f <= fixed %.3f", fl.Eff, fx.Eff)
	}
	// At F=256 flexible stays ahead (or ties) across the grid for the
	// larger run lengths.
	for _, lat := range []int{256, 512, 1024} {
		fx, _ = r.Find("F=256", "fixed", 128, lat)
		fl, _ = r.Find("F=256", "flexible", 128, lat)
		if fl.Eff < fx.Eff-0.02 {
			t.Errorf("F=256 R=128 L=%d: flexible %.3f < fixed %.3f", lat, fl.Eff, fx.Eff)
		}
	}
}

func TestFigure6aCheapAllocationRestoresAdvantage(t *testing.T) {
	e, _ := Get("figure6a-cheap")
	r := e.Run(1, tiny)
	// At the churn point where general-purpose allocation loses,
	// lookup-table allocation must do no worse than the general one.
	gen, _ := r.Find("F=64", "flexible", 32, 1024)
	cheap, _ := r.Find("F=64", "flexible-lookup", 32, 1024)
	if cheap.Eff < gen.Eff {
		t.Errorf("lookup %.3f < general %.3f at the churn point", cheap.Eff, gen.Eff)
	}
}

func TestHomogeneousGainsLarger(t *testing.T) {
	// Section 3.4: homogeneous C=8 gains exceed the mixed-size gains.
	mixed, _ := Get("figure5")
	hom, _ := Get("homogeneous-c8")
	rm := mixed.Run(1, tiny)
	rh := hom.Run(1, tiny)
	// Compare speedups in a linear-regime cell.
	cell := func(r *Report) float64 {
		fx, _ := r.Find("F=128", "fixed", 8, 512)
		fl, _ := r.Find("F=128", "flexible", 8, 512)
		return fl.Eff / fx.Eff
	}
	if cell(rh) <= cell(rm) {
		t.Errorf("homogeneous speedup %.2f <= mixed %.2f", cell(rh), cell(rm))
	}
	if cell(rh) < 2 {
		t.Errorf("homogeneous C=8 speedup %.2f < 2x (the paper's factor-of-two claim)", cell(rh))
	}
}

func TestAnalyticAgreesWithSimulation(t *testing.T) {
	e, _ := Get("analytic")
	r := e.Run(1, tiny)
	for n := 1; n <= 14; n++ {
		sim, ok1 := r.Find("N-sweep", "simulated", 64, n)
		mod, ok2 := r.Find("N-sweep", "analytic", 64, n)
		if !ok1 || !ok2 {
			t.Fatalf("missing N=%d", n)
		}
		// The simulation includes load and queue costs the model
		// ignores, so allow a modest tolerance.
		if diff := sim.Eff - mod.Eff; diff > 0.05 || diff < -0.12 {
			t.Errorf("N=%d: simulated %.3f vs analytic %.3f", n, sim.Eff, mod.Eff)
		}
	}
}

func TestFigure3Experiment(t *testing.T) {
	e, _ := Get("figure3")
	r := e.Run(1, tiny)
	if len(r.Points) != 1 {
		t.Fatalf("figure3 points = %d: %v", len(r.Points), r.Notes)
	}
	if c := r.Points[0].Eff; c < 4 || c > 6 {
		t.Errorf("context switch cost %.2f outside the paper's 4-6 cycles", c)
	}
}

func TestFigure4Experiment(t *testing.T) {
	e, _ := Get("figure4")
	r := e.Run(1, tiny)
	if len(r.Points) != 3 {
		t.Fatalf("figure4 measured %d unload costs: %v", len(r.Points), r.Notes)
	}
	// ISA-measured unload costs must scale ~1 cycle per register.
	diff := r.Points[1].Eff - r.Points[0].Eff
	if diff != 8 {
		t.Errorf("unload cost delta for 8 extra registers = %.0f", diff)
	}
}

func TestAblationPolicy(t *testing.T) {
	e, _ := Get("ablation-policy")
	r := e.Run(1, tiny)
	// The competitive tradeoff: at long latencies two-phase must beat
	// never-unload (which just idles out each fault)...
	tp, _ := r.Find("F=128", "flex-two-phase", 32, 1024)
	nv, _ := r.Find("F=128", "flex-never", 32, 1024)
	if tp.Eff <= nv.Eff {
		t.Errorf("two-phase %.3f <= never %.3f at L=1024", tp.Eff, nv.Eff)
	}
	// ...while at short latencies hasty eviction wastes load/unload
	// work on faults that were about to complete, so two-phase must
	// beat always-unload there.
	tpShort, _ := r.Find("F=128", "flex-two-phase", 32, 128)
	alShort, _ := r.Find("F=128", "flex-always", 32, 128)
	if tpShort.Eff <= alShort.Eff {
		t.Errorf("two-phase %.3f <= always %.3f at L=128", tpShort.Eff, alShort.Eff)
	}
	// Always evicts on the first probe, so it probes far less per
	// unload than two-phase's threshold polling.
	al, _ := r.Find("F=128", "flex-always", 32, 1024)
	if al.Res.Unloads > 0 && tp.Res.Unloads > 0 {
		alRate := float64(al.Res.Probes) / float64(al.Res.Unloads)
		tpRate := float64(tp.Res.Probes) / float64(tp.Res.Unloads)
		if alRate >= tpRate {
			t.Errorf("always probes/unload %.2f >= two-phase %.2f", alRate, tpRate)
		}
	}
}

func TestAblationAlloc(t *testing.T) {
	e, _ := Get("ablation-alloc")
	r := e.Run(1, tiny)
	// Cheaper allocators must not do worse than the 25-cycle one in the
	// churn regime.
	gen, _ := r.Find("F=64", "flexible", 32, 1024)
	ff1, _ := r.Find("F=64", "flexible-ff1", 32, 1024)
	lk, _ := r.Find("F=64", "flexible-lookup", 32, 1024)
	if ff1.Eff < gen.Eff-0.01 {
		t.Errorf("ff1 %.3f < general %.3f", ff1.Eff, gen.Eff)
	}
	if lk.Eff < gen.Eff-0.01 {
		t.Errorf("lookup %.3f < general %.3f", lk.Eff, gen.Eff)
	}
	// Buddy behaves like the bitmap allocator (same costs, same blocks).
	bd, _ := r.Find("F=64", "flexible-buddy", 32, 1024)
	if d := bd.Eff - gen.Eff; d > 0.03 || d < -0.03 {
		t.Errorf("buddy %.3f deviates from bitmap %.3f", bd.Eff, gen.Eff)
	}
}

func TestCombinedExperimentRuns(t *testing.T) {
	e, _ := Get("combined")
	r := e.Run(1, tiny)
	if len(r.Points) != 3*3*5*2 {
		t.Fatalf("combined points = %d", len(r.Points))
	}
	// Every simulation completed its population.
	for _, p := range r.Points {
		if p.Res.Completed != tiny.Threads {
			t.Fatalf("%s %s R=%d L=%d completed %d/%d", p.Panel, p.Arch, p.R, p.L,
				p.Res.Completed, tiny.Threads)
		}
	}
}

func TestTableRendering(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	tbl := Table(r)
	for _, want := range []string{"Figure 5", "F=64", "F=128", "F=256", "fixed R=8", "flexible R=128"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestPlotRendering(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	p := Plot(r, "F=128")
	if !strings.Contains(p, "legend:") || !strings.Contains(p, "efficiency vs L") {
		t.Errorf("plot malformed:\n%s", p)
	}
	if len(strings.Split(p, "\n")) < 20 {
		t.Error("plot too short")
	}
	if got := Plot(r, "F=999"); !strings.Contains(got, "no data") {
		t.Error("missing-panel plot should say so")
	}
}

func TestCSVRendering(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	csv := CSV(r)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(r.Points) {
		t.Errorf("csv lines = %d want %d", len(lines), 1+len(r.Points))
	}
	if !strings.HasPrefix(lines[0], "experiment,panel,arch") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "figure5,F=64,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestSummaryRendering(t *testing.T) {
	e, _ := Get("figure5")
	r := e.Run(1, tiny)
	s := Summary(r)
	for _, panel := range []string{"F=64", "F=128", "F=256"} {
		if !strings.Contains(s, panel) {
			t.Errorf("summary missing %s:\n%s", panel, s)
		}
	}
	if !strings.Contains(s, "geomean") {
		t.Error("summary missing geomean")
	}
}

func TestReportsDeterministic(t *testing.T) {
	e, _ := Get("figure6")
	a := e.Run(5, tiny)
	b := e.Run(5, tiny)
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i].Eff != b.Points[i].Eff {
			t.Fatalf("point %d differs between identical runs", i)
		}
	}
}

func TestAblationRounding(t *testing.T) {
	e, ok := Get("ablation-rounding")
	if !ok {
		t.Fatal("ablation-rounding not registered")
	}
	r := e.Run(1, tiny)
	// Exact sizing wastes nothing; pow2 wastes something; fixed wastes
	// the most. And in the latency-bound regime the exact allocator's
	// extra resident contexts beat pow2 despite costlier allocation.
	var fixedW, flexW, exactW float64
	n := 0
	for _, p := range r.Points {
		if p.F != 128 {
			continue
		}
		switch p.Arch {
		case "fixed":
			fixedW += p.Res.AvgWastedRegs
			n++
		case "flexible":
			flexW += p.Res.AvgWastedRegs
		case "flexible-exact":
			exactW += p.Res.AvgWastedRegs
		}
	}
	if n == 0 {
		t.Fatal("no F=128 points")
	}
	if exactW != 0 {
		t.Errorf("exact allocation wasted %.1f registers", exactW)
	}
	if !(fixedW > flexW && flexW > 0) {
		t.Errorf("waste ordering wrong: fixed %.1f, pow2 %.1f", fixedW, flexW)
	}
	fx, _ := r.Find("F=128", "flexible", 8, 512)
	ex, _ := r.Find("F=128", "flexible-exact", 8, 512)
	if ex.Eff <= fx.Eff {
		t.Errorf("exact %.3f <= pow2 %.3f in the latency-bound cell", ex.Eff, fx.Eff)
	}
}

func TestCacheInterferenceExperiment(t *testing.T) {
	e, ok := Get("cache-interference")
	if !ok {
		t.Fatal("cache-interference not registered")
	}
	r := e.Run(7, tiny)
	// Miss rate must rise with N for fixed working sets.
	var first, last float64
	for _, p := range r.PanelPoints("miss-rate") {
		if p.Arch != "fixed-ws" {
			continue
		}
		if p.L == 1 {
			first = p.Eff
		}
		if p.L == 10 {
			last = p.Eff
		}
	}
	if last <= first {
		t.Errorf("miss rate did not grow with contexts: %.3f -> %.3f", first, last)
	}
	// The adaptive controller reported a setting.
	if pts := r.PanelPoints("adaptive"); len(pts) != 1 || pts[0].L < 1 {
		t.Errorf("adaptive panel = %+v", pts)
	}
}

func TestScalingExperiment(t *testing.T) {
	e, ok := Get("scaling")
	if !ok {
		t.Fatal("scaling not registered")
	}
	r := e.Run(5, tiny)
	// At the largest machine, flexible must be clearly ahead; at the
	// smallest, both saturate.
	fxBig, _ := r.Find("P-sweep", "fixed", 12, 512)
	flBig, _ := r.Find("P-sweep", "flexible", 12, 512)
	if flBig.Eff <= fxBig.Eff+0.05 {
		t.Errorf("P=512: flexible %.3f not clearly above fixed %.3f", flBig.Eff, fxBig.Eff)
	}
	fxSmall, _ := r.Find("P-sweep", "fixed", 12, 16)
	flSmall, _ := r.Find("P-sweep", "flexible", 12, 16)
	if d := flSmall.Eff - fxSmall.Eff; d > 0.02 || d < -0.02 {
		t.Errorf("P=16: both should saturate (%.3f vs %.3f)", flSmall.Eff, fxSmall.Eff)
	}
	// Latency grows with machine size.
	l16, _ := r.Find("latency", "fixed", 12, 16)
	l512, _ := r.Find("latency", "fixed", 12, 512)
	if l512.Eff <= l16.Eff {
		t.Errorf("latency did not grow with P: %.1f -> %.1f", l16.Eff, l512.Eff)
	}
}

func TestMixedGranularity(t *testing.T) {
	e, ok := Get("mixed-granularity")
	if !ok {
		t.Fatal("mixed-granularity not registered")
	}
	r := e.Run(1, tiny)
	// The bimodal fine/coarse mix should beat the baseline by more than
	// the uniform C ~ U[6,24] workload in the linear regime, since 80%
	// of threads pack 4x denser.
	fig5, _ := Get("figure5")
	r5 := fig5.Run(1, tiny)
	cell := func(rep *Report) float64 {
		fx, _ := rep.Find("F=128", "fixed", 8, 512)
		fl, _ := rep.Find("F=128", "flexible", 8, 512)
		return fl.Eff / fx.Eff
	}
	if cell(r) <= cell(r5) {
		t.Errorf("mixed-granularity speedup %.2f <= uniform %.2f", cell(r), cell(r5))
	}
}

func TestAblationDribble(t *testing.T) {
	e, ok := Get("ablation-dribble")
	if !ok {
		t.Fatal("ablation-dribble not registered")
	}
	r := e.Run(1, tiny)
	// Each (cell, arch) samples an independent stream, so a single cell
	// is noisy at tiny scale; average over the churn regime (large L).
	churnMean := func(arch string) float64 {
		var sum float64
		for _, l := range []int{256, 512, 1024} {
			p, ok := r.Find("F=64", arch, 32, l)
			if !ok {
				t.Fatalf("missing %s L=%d", arch, l)
			}
			sum += p.Eff
		}
		return sum / 3
	}
	// Dribbling helps the flexible architecture in the churn regime...
	if fld, fl := churnMean("flexible-dribble"), churnMean("flexible"); fld <= fl {
		t.Errorf("dribble %.3f <= plain %.3f", fld, fl)
	}
	// ...and the fixed baseline too (orthogonality).
	if fxd, fx := churnMean("fixed-dribble"), churnMean("fixed"); fxd <= fx {
		t.Errorf("fixed dribble %.3f <= plain %.3f", fxd, fx)
	}
}

func TestManagedISAExperiment(t *testing.T) {
	e, ok := Get("managed-isa")
	if !ok {
		t.Fatal("managed-isa not registered")
	}
	r := e.Run(1, tiny)
	if len(r.Points) != 6 {
		t.Fatalf("points = %d (%v)", len(r.Points), r.Notes)
	}
	get := func(l int) float64 {
		p, ok := r.Find("ISA", "flexible-managed", 3, l)
		if !ok {
			t.Fatalf("missing L=%d", l)
		}
		return p.Eff
	}
	// The Figure 6 shape at instruction level: utilization falls as
	// fault latency grows.
	if !(get(25) > get(100) && get(100) > get(800)) {
		t.Errorf("not declining: %.3f, %.3f, %.3f", get(25), get(100), get(800))
	}
	if get(25) < 2*get(800) {
		t.Errorf("short-latency utilization %.3f not well above long-latency %.3f",
			get(25), get(800))
	}
	for _, p := range r.Points {
		if p.Eff <= 0 || p.Eff >= 1 {
			t.Errorf("L=%d: utilization %.3f out of range", p.L, p.Eff)
		}
	}
}

func TestGranularityExperiment(t *testing.T) {
	e, ok := Get("granularity")
	if !ok {
		t.Fatal("granularity not registered")
	}
	r := e.Run(1, tiny)
	// The Section 4 spectrum: each finer binding granularity keeps
	// more threads resident before the traffic cliff. At 4 threads
	// register relocation still fits everything while fixed-32 slots
	// thrash; at 6 threads only the per-register context cache fits.
	find := func(arch string, threads int) float64 {
		p, ok := r.Find("traffic", arch, 0, threads)
		if !ok {
			t.Fatalf("missing %s threads=%d", arch, threads)
		}
		return p.Eff
	}
	if cc, rr, fx := find("context-cache", 4), find("regreloc", 4), find("fixed", 4); !(cc <= rr && rr < fx*0.5) {
		t.Errorf("threads=4: cc=%.2f rr=%.2f fixed=%.2f", cc, rr, fx)
	}
	if cc, rr := find("context-cache", 6), find("regreloc", 6); !(cc < rr*0.5) {
		t.Errorf("threads=6: context cache %.2f not clearly below regreloc %.2f", cc, rr)
	}
}

type countLimiter struct{ n atomic.Int64 }

func (l *countLimiter) Acquire(context.Context) { l.n.Add(1) }

func TestAllExperimentsRunEndToEnd(t *testing.T) {
	// Completeness guard: every registered experiment runs at tiny
	// scale, produces a renderable report, and round-trips through
	// every output format without panicking. It also pins the OnPoint
	// contract: without a store each local measurement pays
	// ComputeLimit once and lands on OnPoint once, grid cell or not.
	// Tracing subtracts one Acquire time from one OnPoint time per
	// measurement, so an unmatched Acquire would skew it.
	for _, e := range All() {
		var lim countLimiter
		var landed atomic.Int64
		sc := tiny
		sc.ComputeLimit = &lim
		sc.OnPoint = func([]Measurement) { landed.Add(1) }
		r := e.Run(2, sc)
		if r.ID != e.ID {
			t.Errorf("%s: report ID %q", e.ID, r.ID)
		}
		if a, o := lim.n.Load(), landed.Load(); a != o {
			t.Errorf("%s: %d acquires, %d OnPoint calls", e.ID, a, o)
		}
		if len(r.Points) == 0 && len(r.Notes) == 0 {
			t.Errorf("%s: empty report", e.ID)
		}
		if Table(r) == "" || CSV(r) == "" {
			t.Errorf("%s: empty rendering", e.ID)
		}
		for _, panel := range r.Panels() {
			if Plot(r, panel) == "" {
				t.Errorf("%s: empty plot for %s", e.ID, panel)
			}
		}
		for _, p := range r.Points {
			if p.Eff < 0 {
				t.Errorf("%s: negative measurement %+v", e.ID, p)
			}
		}
	}
}
