// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus microbenchmarks of the mechanism itself. Each
// figure bench runs the corresponding experiment panel and reports
// the headline efficiencies as custom metrics, so `go test -bench=.`
// reproduces the paper's series end to end.
package regreloc_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync/atomic"
	"testing"
	"time"

	"regreloc"
	"regreloc/internal/alloc"
	"regreloc/internal/experiment"
	"regreloc/internal/isa"
	"regreloc/internal/node"
	"regreloc/internal/pointstore"
	"regreloc/internal/policy"
	"regreloc/internal/regfile"
	"regreloc/internal/rng"
	"regreloc/internal/serve"
	"regreloc/internal/workload"
)

// benchScale keeps figure benches fast enough to iterate.
var benchScale = experiment.Scale{Threads: 24, WorkRuns: 60, MinWork: 1500}

// runPanel runs one (F, R, L) grid panel of a registered experiment
// and reports mean efficiencies per architecture.
func runPanel(b *testing.B, id, panel string) {
	b.Helper()
	e, ok := experiment.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *experiment.Report
	for i := 0; i < b.N; i++ {
		last = e.Run(uint64(i+1), benchScale)
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, p := range last.PanelPoints(panel) {
		sums[p.Arch] += p.Eff
		counts[p.Arch]++
	}
	for arch, sum := range sums {
		b.ReportMetric(sum/float64(counts[arch]), "eff-"+arch)
	}
	if f, x := sums["fixed"], sums["flexible"]; f > 0 && x > 0 {
		b.ReportMetric(x/f, "speedup")
	}
}

// The sweep harness itself: the full Figure 5 grid (108 simulations)
// at reproduction scale, run sequentially vs on one worker per core.
// Per-point seed derivation makes both produce the identical Report;
// on a multi-core machine the parallel run should show near-linear
// speedup (the points are independent single-node simulations).
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	e, ok := experiment.Get("figure5")
	if !ok {
		b.Fatal("figure5 not registered")
	}
	sc := experiment.Full
	sc.Workers = workers
	var points int
	for i := 0; i < b.N; i++ {
		r := e.Run(1, sc)
		points = len(r.Points)
		if points == 0 {
			b.Fatal("empty report")
		}
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkSweepSequential(b *testing.B) { benchSweepWorkers(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweepWorkers(b, 0) }

// The serving layer's point-granular memoization: a figure5 grid
// submitted to a fresh daemon ("cold") vs the same grid where an
// earlier job already covered half its cells ("overlap50"). Only the
// timed submission counts; the warm-up job and server setup run with
// the timer stopped. simulated_frac is the fraction of the request's
// cells the timed submission actually simulated (1.0 cold, 0.5 with
// the overlap); points/s is the client-observed assembly rate, which
// the point store should raise by >= 2x on the overlapping re-submit.
func benchServeOverlap(b *testing.B, warmFirst bool) {
	b.Helper()
	submit := func(s *serve.Server, req serve.Request) {
		b.Helper()
		j, _, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			b.Fatalf("job %s stuck in state %s", j.ID, j.StateNow())
		}
		if st := j.StateNow(); st != serve.StateDone {
			b.Fatalf("job state = %s", st)
		}
	}
	const totalPoints = 16 // 1 F x 2 R x 4 L x 2 architectures
	var simulated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// One engine worker per job: elapsed time is then proportional
		// to the work actually simulated rather than to the host's core
		// count (on a many-core machine a parallel sweep finishes in the
		// time of its slowest point, masking the cells the store saved).
		s, err := serve.New(serve.Config{
			QueueCap:     8,
			Workers:      2,
			PointWorkers: 1,
			JobTimeout:   time.Minute,
			Logger:       log.New(io.Discard, "", 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Start()
		// A fresh seed per iteration keeps the report cache out of the
		// comparison: each timed submission is a genuinely new request.
		seed := uint64(i + 1)
		full := serve.Request{Experiment: "figure5", Seed: seed, Scale: "quick",
			F: []int{64}, R: []int{8, 32}, L: []int{16, 32, 64, 128}}
		if warmFirst {
			warm := full
			warm.R = []int{8} // the shared (and costlier) half of the grid
			submit(s, warm)
		}
		before := s.PointCounters().Misses
		b.StartTimer()
		submit(s, full)
		b.StopTimer()
		simulated += s.PointCounters().Misses - before
		s.Shutdown(context.Background())
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(simulated)/float64(totalPoints*b.N), "simulated_frac")
}

func BenchmarkServeGridOverlap(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchServeOverlap(b, false) })
	b.Run("overlap50", func(b *testing.B) { benchServeOverlap(b, true) })
}

// The fully warm sweep: every cell of a figure5 quick grid resolves
// from the point store, so the measured rate is pure cache-assembly
// throughput — plan, one batched probe, decode, no simulation at all.
// This is the path an interactive dashboard re-querying overlapping
// grids lives on, and the one the parallel decode targets.
func BenchmarkSweepWarm(b *testing.B) {
	e, ok := experiment.Get("figure5")
	if !ok {
		b.Fatal("figure5 not registered")
	}
	store, err := pointstore.New(64<<20, "")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sc := experiment.Quick
	sc.PointStore = store
	warm := e.Run(1, sc) // populate: every later run is 100% cached
	if warm.Err != nil {
		b.Fatal(warm.Err)
	}
	points := len(warm.Points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := e.Run(1, sc)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.StopTimer()
	if c := store.Counters(); c.Misses != int64(points) {
		b.Fatalf("warm sweep simulated: %d misses beyond the %d-point populate run", c.Misses-int64(points), points)
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// The fidelity tiers head to head on a cold Figure-5-style grid: the
// same 16-cell request submitted to a fresh daemon at each tier, with
// points/s the client-observed rate. The analytic tier's points/s
// should sit orders of magnitude (>= 50x) above the simulator's —
// that gap is what the adaptive mode's instant first answer buys.
func benchServeFidelity(b *testing.B, fidelity string) {
	b.Helper()
	const totalPoints = 16 // 1 F x 2 R x 4 L x 2 architectures
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := serve.New(serve.Config{
			QueueCap:     8,
			Workers:      2,
			PointWorkers: 1,
			JobTimeout:   time.Minute,
			Logger:       log.New(io.Discard, "", 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Start()
		req := serve.Request{Experiment: "figure5", Seed: uint64(i + 1),
			Scale: "quick", Fidelity: fidelity,
			F: []int{64}, R: []int{8, 32}, L: []int{16, 32, 64, 128}}
		b.StartTimer()
		j, _, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			b.Fatalf("job %s stuck in state %s", j.ID, j.StateNow())
		}
		if st := j.StateNow(); st != serve.StateDone {
			b.Fatalf("job state = %s", st)
		}
		b.StopTimer()
		s.Shutdown(context.Background())
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// parkedLimiter blocks every fresh simulation until its job is
// cancelled, so the adaptive-submit bench measures only the submit
// path: refinement work never occupies the workers between
// iterations.
type parkedLimiter struct{}

func (parkedLimiter) Acquire(ctx context.Context) { <-ctx.Done() }

// The adaptive mode's submit-path latency: how long a client waits for
// Submit to return with the complete analytic partial in hand. The
// refinement is cancelled immediately — only the inline plan-assembly
// cost is timed.
func benchAdaptiveSubmit(b *testing.B) {
	s, err := serve.New(serve.Config{
		QueueCap:     64,
		Workers:      2,
		PointWorkers: 1,
		JobTimeout:   time.Minute,
		ComputeLimit: parkedLimiter{},
		Logger:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration keeps every cache layer cold: the
		// timed call pays the full analytic sweep, not a memoized one.
		req := serve.Request{Experiment: "figure5", Seed: 1_000_000 + uint64(i),
			Scale: "quick", Fidelity: "adaptive",
			F: []int{64}, R: []int{8, 32}, L: []int{16, 32, 64, 128}}
		j, _, err := s.Submit(req)
		for err != nil {
			// On a box with few cores the tight submit/cancel loop can
			// outpace the workers draining cancelled jobs from the
			// FIFO; that backpressure (429) is correct server behavior,
			// not a benchmark failure. Yield off the clock and retry.
			b.StopTimer()
			time.Sleep(200 * time.Microsecond)
			b.StartTimer()
			j, _, err = s.Submit(req)
		}
		if len(j.Status(false).Partial) == 0 {
			b.Fatal("submit returned without a partial")
		}
		b.StopTimer()
		s.Cancel(j.ID)
		<-j.Done()
		b.StartTimer()
	}
}

func BenchmarkServeFidelity(b *testing.B) {
	b.Run("sim", func(b *testing.B) { benchServeFidelity(b, "sim") })
	b.Run("analytic", func(b *testing.B) { benchServeFidelity(b, "analytic") })
	b.Run("machine", func(b *testing.B) { benchServeFidelity(b, "machine") })
	b.Run("adaptive-submit", benchAdaptiveSubmit)
}

// The serving layer under production-shaped load: many concurrent
// clients (SetParallelism x GOMAXPROCS goroutines), half the
// submissions repeating a small shared pool of grids (hitting the
// report cache, the point store, and single-flight coalescing), half
// unique (cold simulation). Each op is one submit-and-wait round
// trip, so ns/op is the client-observed time-to-result under
// contention; cmd/rrload measures the same mix over real HTTP.
func BenchmarkServeLoad(b *testing.B) {
	s, err := serve.New(serve.Config{
		QueueCap:     512,
		Workers:      4,
		PointWorkers: 1,
		JobTimeout:   time.Minute,
		Logger:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	pool := make([]serve.Request, 4)
	for i := range pool {
		pool[i] = serve.Request{Experiment: "figure5", Seed: uint64(i + 1),
			Scale: "quick", F: []int{64}, R: []int{8}, L: []int{16}}
	}
	var uniq, rejected atomic.Int64
	b.SetParallelism(16) // clients = 16 x GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := pool[i%len(pool)]
			if i%2 == 1 {
				// Unique grid: a fresh seed cold-misses every cache layer.
				req.Seed = 1_000_000 + uint64(uniq.Add(1))
			}
			i++
			j, status, err := s.Submit(req)
			if err != nil {
				if status == 429 {
					rejected.Add(1)
					continue
				}
				b.Error(err)
				return
			}
			select {
			case <-j.Done():
			case <-time.After(time.Minute):
				b.Error("job stuck")
				return
			}
		}
	})
	b.StopTimer()
	pc := s.PointCounters()
	total := pc.Hits + pc.Misses
	b.ReportMetric(float64(pc.Misses)/b.Elapsed().Seconds(), "points/s")
	if total > 0 {
		b.ReportMetric(float64(pc.Hits)/float64(total), "point_hit_frac")
	}
	b.ReportMetric(float64(rejected.Load()), "rejected")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// Figure 5: cache faults, one bench per register file size panel.
func BenchmarkFigure5(b *testing.B) {
	for _, f := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("F%d", f), func(b *testing.B) {
			runPanel(b, "figure5", fmt.Sprintf("F=%d", f))
		})
	}
}

// Figure 6: synchronization faults with two-phase unloading.
func BenchmarkFigure6(b *testing.B) {
	for _, f := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("F%d", f), func(b *testing.B) {
			runPanel(b, "figure6", fmt.Sprintf("F=%d", f))
		})
	}
}

// Section 3.3: the Figure 6(a) rerun with the cheap lookup-table
// allocator.
func BenchmarkFigure6aCheapAlloc(b *testing.B) {
	runPanel(b, "figure6a-cheap", "F=64")
}

// Section 3.4: homogeneous context sizes.
func BenchmarkHomogeneousC8(b *testing.B)  { runPanel(b, "homogeneous-c8", "F=128") }
func BenchmarkHomogeneousC16(b *testing.B) { runPanel(b, "homogeneous-c16", "F=128") }

// Section 3 intro: combined cache + synchronization faults.
func BenchmarkCombinedFaults(b *testing.B) { runPanel(b, "combined", "F=128") }

// Section 4 ablation: power-of-two (OR) vs exact (ADD) context sizes.
func BenchmarkAblationRounding(b *testing.B) { runPanel(b, "ablation-rounding", "F=128") }

// Section 3.4: machine-size scaling with network feedback.
func BenchmarkScaling(b *testing.B) {
	e, ok := experiment.Get("scaling")
	if !ok {
		b.Fatal("scaling not registered")
	}
	var last *experiment.Report
	for i := 0; i < b.N; i++ {
		last = e.Run(uint64(i+1), benchScale)
	}
	if fx, ok := last.Find("P-sweep", "fixed", 12, 512); ok {
		b.ReportMetric(fx.Eff, "eff-fixed-P512")
	}
	if fl, ok := last.Find("P-sweep", "flexible", 12, 512); ok {
		b.ReportMetric(fl.Eff, "eff-flexible-P512")
	}
}

// Section 5.2: shared-cache interference vs resident contexts.
func BenchmarkCacheInterference(b *testing.B) {
	e, ok := experiment.Get("cache-interference")
	if !ok {
		b.Fatal("cache-interference not registered")
	}
	var last *experiment.Report
	for i := 0; i < b.N; i++ {
		last = e.Run(uint64(i+1), benchScale)
	}
	for _, p := range last.PanelPoints("adaptive") {
		b.ReportMetric(float64(p.L), "adaptive-N")
		b.ReportMetric(p.Eff, "adaptive-util")
	}
}

// Figure 3: the software context switch measured on the
// instruction-level machine.
func BenchmarkFigure3ContextSwitch(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		c, err := experiment.MeasureContextSwitch()
		if err != nil {
			b.Fatal(err)
		}
		cost = c
	}
	b.ReportMetric(cost, "cycles/switch")
}

// Figure 4: allocator operation costs — the Go implementations of the
// Appendix A routines, measured as real ns/op, with the paper's cycle
// charges as metrics.
func BenchmarkFigure4AllocatorCosts(b *testing.B) {
	b.Run("bitmap-alloc-free", func(b *testing.B) {
		a := alloc.NewBitmap(128, 64, alloc.FlexibleCosts)
		src := rng.New(1)
		for i := 0; i < b.N; i++ {
			ctx, ok := a.Alloc(src.IntRange(6, 24))
			if ok {
				a.Free(ctx)
			}
		}
		b.ReportMetric(float64(alloc.FlexibleCosts.AllocSucceed), "model-cycles")
	})
	b.Run("lookup-alloc-free", func(b *testing.B) {
		a := alloc.NewLookup(128, alloc.LookupCosts)
		src := rng.New(1)
		for i := 0; i < b.N; i++ {
			ctx, ok := a.Alloc(src.IntRange(6, 24))
			if ok {
				a.Free(ctx)
			}
		}
		b.ReportMetric(float64(alloc.LookupCosts.AllocSucceed), "model-cycles")
	})
	b.Run("buddy-alloc-free", func(b *testing.B) {
		a := alloc.NewBuddy(128, 4, 64, alloc.FlexibleCosts)
		src := rng.New(1)
		for i := 0; i < b.N; i++ {
			ctx, ok := a.Alloc(src.IntRange(6, 24))
			if ok {
				a.Free(ctx)
			}
		}
	})
	b.Run("unload-ISA-measured", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			c, err := experiment.MeasureUnload(16)
			if err != nil {
				b.Fatal(err)
			}
			cycles = c
		}
		b.ReportMetric(float64(cycles), "cycles/unload-C16")
	})
}

// Figure 2 / Section 4 ablation: relocation operator cost at decode.
func BenchmarkDecodeRelocation(b *testing.B) {
	for _, mode := range []regfile.Mode{regfile.ModeOR, regfile.ModeADD, regfile.ModeMUX, regfile.ModeBounded} {
		b.Run(mode.String(), func(b *testing.B) {
			f := regfile.New(128, mode)
			f.SetRRM(40)
			f.SetBound(8)
			sink := 0
			for i := 0; i < b.N; i++ {
				abs, _ := f.Relocate(i&7, isa.OperandBits)
				sink += abs
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// Raw machine execution speed (simulated instructions per real second).
func BenchmarkMachineExecution(b *testing.B) {
	prog, err := regreloc.Assemble(`
		movi r1, 0
		li r2, 1000000000
	loop:
		addi r1, r1, 1
		add r3, r1, r2
		xor r4, r3, r1
		bne r1, r2, loop
		halt
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := regreloc.NewMachine(regreloc.MachineConfig{})
	m.Load(prog, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// Multi-RRM decode (Section 5.3) vs single-RRM execution.
func BenchmarkMultiRRM(b *testing.B) {
	run := func(b *testing.B, multi bool, src string) {
		prog, err := regreloc.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		m := regreloc.NewMachine(regreloc.MachineConfig{MultiRRM: multi})
		m.Load(prog, 0)
		bits := m.RF.RRMBits()
		m.RF.SetRRM2(32 | 64<<uint(bits))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
			if m.Halted() {
				m.PC = 0
			}
		}
	}
	b.Run("single", func(b *testing.B) {
		run(b, false, "add r3, r4, r5\nbeq r0, r0, 0")
	})
	b.Run("multi", func(b *testing.B) {
		run(b, true, "add c0.r3, c0.r4, c1.r6\nbeq r0, r0, 0")
	})
}

// Node simulator throughput: simulated cycles per real second.
func BenchmarkNodeSimulation(b *testing.B) {
	spec := workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 8000)
	var simulated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := node.Run(node.FlexibleConfig(128, policy.TwoPhase{}, 8), spec, uint64(i+1))
		simulated += res.Full.Total()
	}
	b.ReportMetric(float64(simulated)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// The analytic model is essentially free; benchmarked to document it.
func BenchmarkAnalyticModel(b *testing.B) {
	p := regreloc.NewAnalyticParams(32, 512, 8)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.Efficiency(float64(i%16) + 1)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// Assembler throughput on the full kernel runtime.
func BenchmarkAssembler(b *testing.B) {
	prog, err := regreloc.Assemble("nop")
	if err != nil || len(prog.Words) != 1 {
		b.Fatal("assembler broken")
	}
	src := `
	start:
		movi r1, 100
		lw r2, 4(r1)
		add r3, r2, r1
		beq r3, r1, start
		jal r4, start
		halt
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regreloc.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ISA-level efficiency sweep: the managed machine across fault
// latencies (every runtime operation in assembly).
func BenchmarkManagedISA(b *testing.B) {
	e, ok := experiment.Get("managed-isa")
	if !ok {
		b.Fatal("managed-isa not registered")
	}
	var last *experiment.Report
	for i := 0; i < b.N; i++ {
		last = e.Run(uint64(i+1), benchScale)
	}
	for _, p := range last.PanelPoints("ISA") {
		b.ReportMetric(p.Eff, fmt.Sprintf("eff-L%d", p.L))
	}
}
