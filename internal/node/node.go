// Package node simulates a single coarsely multithreaded processor
// node, reproducing the paper's experimental setup (Section 3): an
// APRIL-style processor that switches contexts only when a high-latency
// operation (remote cache miss or synchronization fault) occurs,
// running a population of synthetic threads to completion and
// accounting every cycle to the Figure 4 cost table.
//
// The same simulator runs both architectures under comparison:
//
//   - Fixed: conventional hardware contexts (alloc.Fixed, 32 registers
//     each, zero allocation cost — the paper's deliberately conservative
//     baseline), and
//   - Flexible: register relocation (alloc.Bitmap with the Appendix A
//     cost model).
//
// Faults are modeled with a discrete-event queue (the PROTEUS
// substitute): when a thread faults, its service-completion event is
// scheduled Latency cycles ahead; the processor switches to the next
// runnable resident context, or — under the two-phase policy — probes
// blocked contexts and unloads one whose accumulated polling cost has
// reached its unload cost (Section 3.3).
package node

import (
	"fmt"
	"sync"

	"regreloc/internal/alloc"
	"regreloc/internal/policy"
	"regreloc/internal/rng"
	"regreloc/internal/sched"
	"regreloc/internal/sim"
	"regreloc/internal/stats"
	"regreloc/internal/thread"
	"regreloc/internal/trace"
	"regreloc/internal/workload"
)

// Config describes a node architecture.
type Config struct {
	// Name labels the configuration ("fixed", "flexible", ...).
	Name string
	// NewAlloc constructs the context allocator; a constructor rather
	// than an instance so one Config can run many experiments.
	NewAlloc func() alloc.Allocator
	// Policy is the thread unloading policy.
	Policy policy.Unload
	// SwitchCost is S, the software context switch cost in cycles
	// (6 for the cache experiments, 8 for the synchronization ones).
	SwitchCost int64
	// QueueOpCost is the thread queue insert/remove cost (10).
	QueueOpCost int64
	// ProbeCost is the cost of one unsuccessful attempt to resume a
	// blocked context (switch in, test, switch away). Defaults to
	// SwitchCost.
	ProbeCost int64
	// Tracer, when non-nil, records a cycle-level activity timeline
	// (see internal/trace). Tracing does not perturb the simulation: a
	// traced run returns the same Result as an untraced one. A traced
	// run polls pass by pass and records every probe, where an untraced
	// run charges a streak of quiet probe passes in one step.
	Tracer *trace.Recorder
	// DribbleUnload models the dribbling-registers hardware the paper
	// mentions the APRIL designers exploring (Soundararajan's
	// dribble-back registers): a blocked context's registers drain to
	// memory in the background while other contexts execute, so an
	// unload costs only the fixed blocking overhead instead of
	// C + overhead. The paper notes the idea is orthogonal to register
	// relocation; this flag lets the simulator quantify the
	// combination.
	DribbleUnload bool
}

func (c Config) withDefaults() Config {
	if c.ProbeCost == 0 {
		c.ProbeCost = c.SwitchCost
	}
	return c
}

// windowHead and windowTail are the fractions of total useful work
// excluded from measurement at either end, matching the paper's
// transient exclusion.
const windowHead, windowTail = 0.1, 0.1

// FixedConfig returns the conventional-hardware baseline: fileSize/32
// fixed contexts, zero allocation cost.
func FixedConfig(fileSize int, pol policy.Unload, switchCost int64) Config {
	return Config{
		Name:        "fixed",
		NewAlloc:    func() alloc.Allocator { return alloc.NewFixed(fileSize, 32) },
		Policy:      pol,
		SwitchCost:  switchCost,
		QueueOpCost: 10,
	}
}

// FlexibleConfig returns the register relocation architecture with the
// paper's general-purpose dynamic allocator.
func FlexibleConfig(fileSize int, pol policy.Unload, switchCost int64) Config {
	maxCtx := 64
	if maxCtx > fileSize {
		maxCtx = fileSize
	}
	return Config{
		Name:        "flexible",
		NewAlloc:    func() alloc.Allocator { return alloc.NewBitmap(fileSize, maxCtx, alloc.FlexibleCosts) },
		Policy:      pol,
		SwitchCost:  switchCost,
		QueueOpCost: 10,
	}
}

// Result summarizes one simulation run.
type Result struct {
	Name string
	// Windowed is the steady-state cycle account (transients excluded);
	// Efficiency and the activity breakdown come from it.
	Windowed *stats.CycleAccount
	// Full is the whole-run account.
	Full *stats.CycleAccount
	// Efficiency is the windowed processor utilization, the paper's
	// metric.
	Efficiency float64

	// Completed is the number of threads run to completion.
	Completed int
	// AvgResident is the time-averaged number of resident contexts (N
	// in the paper's analysis); MaxResident is its maximum.
	AvgResident float64
	MaxResident int
	// AvgWastedRegs is the time-averaged number of registers allocated
	// to resident contexts beyond their threads' requirements — the
	// power-of-two rounding waste (zero for exact-size allocation;
	// 32-C per context for fixed hardware contexts).
	AvgWastedRegs float64

	// Operation counts.
	Allocs, AllocFails, Deallocs, Loads, Unloads, Faults, Probes int64
}

// statePool recycles simulation state — the event queue, the scheduling
// ring's nodes, the FIFO's backing array, and the generated
// thread population — across runs. A parallel sweep worker thereby
// reuses one working set for its whole slice of the grid instead of
// reallocating it per point. States are only returned to the pool
// after a run completes normally, so a panicking run cannot leak a
// dirty state into a later one.
var statePool = sync.Pool{New: func() any { return &state{ring: sched.NewRing()} }}

// Run simulates the workload on the configured node. The same seed
// reproduces the identical run, including the generated thread
// population.
func Run(cfg Config, spec workload.Spec, seed uint64) Result {
	cfg = cfg.withDefaults()
	if cfg.NewAlloc == nil || cfg.Policy == nil || cfg.SwitchCost <= 0 || cfg.QueueOpCost < 0 {
		panic(fmt.Sprintf("node: incomplete config %+v", cfg))
	}
	src := rng.New(seed)

	s := statePool.Get().(*state)
	s.threadBuf = spec.GenerateInto(src.Split(), s.threadBuf)
	threads := s.threadBuf
	s.cfg = cfg
	s.alloc = cfg.NewAlloc()
	s.window = stats.NewWindow(windowHead, windowTail, workload.TotalWork(threads))
	s.runLen = rng.NewSampler(spec.RunLen)
	s.latency = rng.NewSampler(spec.Latency)
	s.src = src.Split()
	s.acct = stats.CycleAccount{}
	s.failMin, s.ready = 0, 0
	s.residentIntegral, s.wasteIntegral, s.currentWaste, s.lastResidentAt = 0, 0, 0, 0
	s.res = Result{Name: cfg.Name}

	// All threads start runnable but unloaded, queued FIFO.
	for _, t := range threads {
		t.State = thread.ReadyUnloaded
		s.queue.Push(t)
		s.charge(stats.Queue, cfg.QueueOpCost)
	}

	for s.res.Completed < len(threads) {
		s.processDueEvents()
		s.fill()

		if cur := s.nextRunnable(); cur != nil {
			s.runSegment(cur)
			continue
		}
		if s.trySwitchSpin() {
			continue
		}
		s.idleToNextEvent()
	}

	s.foldResidency()
	s.res.Full = s.acct.Clone()
	s.res.Windowed = s.window.Measure(&s.acct)
	s.res.Efficiency = s.res.Windowed.Efficiency()
	if s.events.Now() > 0 {
		s.res.AvgResident = float64(s.residentIntegral) / float64(s.events.Now())
		s.res.AvgWastedRegs = float64(s.wasteIntegral) / float64(s.events.Now())
	}
	res := s.res
	s.release()
	return res
}

// release returns a finished state to the pool. Ring, FIFO, and event
// queue are empty once every thread has completed; only the clock and
// reference fields need clearing.
func (s *state) release() {
	s.events.Reset()
	s.alloc = nil
	s.runLen, s.latency = rng.Sampler{}, rng.Sampler{}
	s.src = nil
	s.cfg = Config{}
	s.res = Result{}
	statePool.Put(s)
}

// state is the running simulation.
type state struct {
	cfg    Config
	alloc  alloc.Allocator
	ring   *sched.Ring
	queue  sched.FIFO
	events sim.Queue[*thread.Thread]
	acct   stats.CycleAccount
	window stats.Window

	// threadBuf holds the generated population; the slice and its
	// Thread structs are recycled across runs via the state pool.
	threadBuf []*thread.Thread

	// runLen and latency draw from the workload's Dists (see
	// rng.Sampler).
	runLen, latency rng.Sampler
	src             *rng.Source

	// failMin is the smallest register requirement that failed to
	// allocate since the last Free, 0 if none has. Every requirement at
	// least as large fails too (see alloc.Allocator), so admission skips
	// the threads that need that many without asking the allocator.
	failMin int
	// ready counts the ring's ReadyResident threads.
	ready int

	// residentIntegral accumulates ring.Len() x elapsed cycles for the
	// time-averaged resident-context count; wasteIntegral does the same
	// for currently wasted registers. foldResidency brings both up to
	// the clock, before every change to either factor and at run end.
	residentIntegral int64
	wasteIntegral    int64
	currentWaste     int64
	lastResidentAt   sim.Cycles

	res Result
}

// charge accounts cycles and advances the clock.
func (s *state) charge(a stats.Activity, n int64) {
	s.chargeFor(a, n, -1)
}

// chargeFor is charge with trace attribution to a thread ID (-1 for
// anonymous processor activity). The disabled-tracer path is a plain
// nil check rather than a method call on a nil receiver, so production
// runs (which never trace) pay one predictable branch per charge.
func (s *state) chargeFor(a stats.Activity, n int64, threadID int) {
	if n == 0 {
		return
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(s.events.Now(), n, threadID, a)
	}
	s.acct.Charge(a, n)
	s.advanceClock(n)
}

// foldResidency adds the resident-context and wasted-register integrals
// up to the current time. Both factors are constant between ring
// changes, so one product covers every charge since the last fold.
func (s *state) foldResidency() {
	dt := s.events.Now() - s.lastResidentAt
	s.residentIntegral += int64(s.ring.Len()) * dt
	s.wasteIntegral += s.currentWaste * dt
	s.lastResidentAt = s.events.Now()
}

// processDueEvents handles fault completions due at or before now.
func (s *state) processDueEvents() {
	for {
		t, ok := s.events.PopDue()
		if !ok {
			return
		}
		switch t.State {
		case thread.BlockedResident:
			t.State = thread.ReadyResident
			t.PollCost = 0
			s.ready++
		case thread.BlockedUnloaded:
			t.State = thread.ReadyUnloaded
			s.queue.Push(t)
			s.chargeFor(stats.Queue, s.cfg.QueueOpCost, t.ID)
		default:
			panic(fmt.Sprintf("node: completion event for thread %d in state %v", t.ID, t.State))
		}
	}
}

// fill admits unloaded ready threads while contexts can be allocated,
// using first-fit over the queue: if the registers available cannot
// hold the oldest thread's context, an older-to-newer scan admits the
// first thread that does fit (scheduling order is under software
// control, Section 2.2). One successful allocation is charged per
// admission and one failed allocation per genuine unsuccessful attempt;
// hopeless re-attempts (no capacity change since a failure) are
// skipped, since the runtime tracks free space.
//
// The scan asks the allocator only about threads needing fewer
// registers than failMin, lowering it on every failure; admissions
// only use registers up, so what failed stays failed until a Free
// resets it. Whether an attempt is hopeless, and so uncharged, is still
// judged against failMin as the last charged failure left it.
func (s *state) fill() {
	charged := s.failMin
	for s.queue.Len() > 0 {
		if charged != 0 && s.queue.MinRegs() >= charged {
			return // nothing new could fit; no fresh attempt to charge
		}
		var ctx alloc.Context
		t := s.queue.PopFit(&s.failMin, func(cand *thread.Thread) bool {
			c, ok := s.alloc.Alloc(cand.Regs)
			if ok {
				ctx = c
			}
			return ok
		})
		if t == nil {
			// Every queued thread failed or was skipped, so failMin
			// is now MinRegs.
			s.alloc.Costs().ChargeAlloc(&s.acct, false)
			s.advanceClock(s.alloc.Costs().AllocFail)
			s.res.AllocFails++
			return
		}
		s.alloc.Costs().ChargeAlloc(&s.acct, true)
		s.advanceClock(s.alloc.Costs().AllocSucceed)
		s.res.Allocs++
		s.chargeFor(stats.Queue, s.cfg.QueueOpCost, t.ID)
		t.Ctx = ctx
		t.State = thread.ReadyResident
		t.LoadedTimes++
		s.res.Loads++
		s.chargeFor(stats.Load, t.LoadCost(), t.ID)
		s.foldResidency()
		s.ring.Add(t)
		s.ready++
		s.currentWaste += int64(ctx.Size - t.Regs)
		if s.ring.Len() > s.res.MaxResident {
			s.res.MaxResident = s.ring.Len()
		}
	}
}

// advanceClock moves time forward for cycles already charged to the
// account by an external cost model.
func (s *state) advanceClock(n int64) {
	// AdvanceTo, not Advance: charged cycles (run segments, runtime
	// operations) intentionally overrun pending fault completions — the
	// processor only notices them at the next switch (processDueEvents),
	// which the strict Advance would reject.
	s.events.AdvanceTo(s.events.Now() + n)
}

// nextRunnable returns a runnable resident thread, preferring the
// current ring position, or nil. With none ready it returns at once:
// the full rotation NextRunnable would make ends where it started.
func (s *state) nextRunnable() *thread.Thread {
	if s.ready == 0 {
		return nil
	}
	cur := s.ring.Current()
	if cur.Runnable() {
		return cur
	}
	t, _ := s.ring.NextRunnable()
	return t
}

// runSegment executes one run length of the thread, then handles its
// fault or completion.
func (s *state) runSegment(cur *thread.Thread) {
	cur.Switches++
	run := int64(s.runLen.Sample(s.src))
	if run > cur.WorkLeft {
		run = cur.WorkLeft
	}
	s.chargeFor(stats.Useful, run, cur.ID)
	s.window.MaybeSnapshot(&s.acct, s.acct.Get(stats.Useful))
	cur.WorkLeft -= run
	s.ready-- // cur completes or faults below
	s.processDueEvents()

	if cur.WorkLeft == 0 {
		cur.State = thread.Done
		s.foldResidency()
		s.ring.Remove(cur)
		s.currentWaste -= int64(cur.Ctx.Size - cur.Regs)
		s.alloc.Free(cur.Ctx)
		s.alloc.Costs().ChargeDealloc(&s.acct)
		s.advanceClock(s.alloc.Costs().Dealloc)
		s.res.Deallocs++
		s.res.Completed++
		s.failMin = 0 // capacity increased
		s.chargeFor(stats.Switch, s.cfg.SwitchCost, cur.ID)
		return
	}

	// Fault: schedule service completion, block, switch away.
	lat := int64(s.latency.Sample(s.src))
	if lat < 1 {
		lat = 1
	}
	cur.Faults++
	s.res.Faults++
	cur.State = thread.BlockedResident
	cur.PollCost = 0
	cur.FaultDone = s.events.Now() + lat
	s.events.Schedule(cur.FaultDone, cur)
	s.chargeFor(stats.Switch, s.cfg.SwitchCost, cur.ID)
}

// trySwitchSpin is the two-phase polling pass (Section 3.3): with no
// runnable resident context but demand for registers (a nonempty
// unloaded ready queue), probe blocked resident contexts in ring
// order, accumulating the wasted cycles on each. A context whose
// polling cost reaches its unload cost is unloaded, freeing registers.
// Returns true if it made progress (probed or unloaded), false if the
// caller should idle.
//
// One loop runs the pass, traced or not. It looks up the policy once
// and charges spin cycles in one step: a probe only adds its cost to
// the uncharged spin, which is charged when a probe ends at or after
// the next pending completion (so processDueEvents sees the clock the
// per-probe charges would have left), and when the pass ends. Nothing
// reads the clock or the account in between, so every total and every
// later charge's start time are those of charging each probe as it
// happens. A tracer gets each probe's entry at the cycle it starts.
//
// Without a tracer, the pass also charges the streak of quiet passes
// ahead of it (quietPasses): k passes add k probes' spin to the
// uncharged spin and k probes' poll cost to every context still
// blocked when the loop reaches it. A context that completes during
// the pass gets none, as the per-probe loop's poll costs would have
// been reset by its completion; once the pass stops, the loop only
// adds the remaining contexts' poll costs, and the probed context is
// unloaded after it, which changes nothing the additions read.
func (s *state) trySwitchSpin() bool {
	if s.queue.Len() == 0 || s.ring.Len() == 0 {
		return false
	}
	pol := s.cfg.Policy
	_, never := pol.(policy.Never)
	_, twoPhase := pol.(policy.TwoPhase)
	tr := s.cfg.Tracer
	cost := s.cfg.ProbeCost
	next, pending := s.events.PeekTime()
	var k int64
	if tr == nil && pending && (never || twoPhase) {
		k = s.quietPasses(next, twoPhase)
	}
	poll := k * cost
	probes := k * int64(s.ring.Len())
	spun := probes * cost // uncharged spin cycles
	stopped := false
	var victim *thread.Thread // the probed context to unload
	// Each iterates the live ring without allocating a snapshot; the
	// loop changes no ring membership, since the unload waits for it.
	s.ring.Each(func(t *thread.Thread) bool {
		if t.State != thread.BlockedResident {
			return true
		}
		t.PollCost += poll
		if stopped {
			return true
		}
		// Probe: switch in, test, fail, switch away.
		if tr != nil {
			tr.Record(s.events.Now()+spun, cost, t.ID, stats.Spin)
		}
		spun += cost
		t.PollCost += cost
		probes++
		if pending && s.events.Now()+spun >= next {
			s.chargeSpin(spun)
			spun = 0
			s.processDueEvents()
			next, pending = s.events.PeekTime()
			if t.State != thread.BlockedResident {
				// Its fault completed while probing; run it.
				stopped = true
				return poll > 0
			}
		}
		var unload bool
		switch {
		case never:
		case twoPhase:
			unload = policy.TwoPhase{}.ShouldUnload(t)
		default:
			unload = pol.ShouldUnload(t)
		}
		if unload {
			victim, stopped = t, true
			return poll > 0
		}
		return true
	})
	s.chargeSpin(spun)
	if victim != nil {
		s.unload(victim)
	}
	s.res.Probes += probes
	return probes > 0
}

// chargeSpin charges n cycles of probing whose trace entries, if any,
// are already recorded.
func (s *state) chargeSpin(n int64) {
	s.acct.Charge(stats.Spin, n)
	s.advanceClock(n)
}

// quietPasses returns the length of the streak of whole probe passes
// ahead in which nothing happens: no fault completion falls due and no
// probed context reaches its unload threshold. trySwitchSpin runs only
// when no resident context is runnable, so a pass probes every context
// in the ring. A quiet pass leaves the ring pointer where it was,
// cannot admit a thread (fill is a no-op while failMin holds, and
// nothing frees registers), and executes no useful work, so no window
// snapshot can fire. k quiet passes therefore add exactly k times one
// pass's spin cycles, probes and poll costs, and leave the ring, and
// so the resident and waste integrals, as the per-probe charges would.
//
// The streak is bounded by next, the next event: its last pass must
// end before it falls due. Under TwoPhase every context's poll cost
// must also stay below its unload cost; Never has no such bound, and
// trySwitchSpin asks any other policy after every probe instead.
func (s *state) quietPasses(next sim.Cycles, twoPhase bool) int64 {
	k := (next - s.events.Now() - 1) / (int64(s.ring.Len()) * s.cfg.ProbeCost)
	if k > 0 && twoPhase {
		s.ring.Each(func(t *thread.Thread) bool {
			if h := (t.UnloadCost() - t.PollCost - 1) / s.cfg.ProbeCost; h < k {
				k = h
			}
			return k > 0
		})
	}
	return max(k, 0)
}

// unload evicts a blocked resident thread, freeing its context.
func (s *state) unload(t *thread.Thread) {
	cost := t.UnloadCost()
	if s.cfg.DribbleUnload {
		// Registers drained in the background; only the blocking
		// bookkeeping remains on the critical path.
		cost = thread.LoadOverhead
	}
	s.chargeFor(stats.Unload, cost, t.ID)
	s.foldResidency()
	s.ring.Remove(t)
	s.currentWaste -= int64(t.Ctx.Size - t.Regs)
	s.alloc.Free(t.Ctx)
	s.alloc.Costs().ChargeDealloc(&s.acct)
	s.advanceClock(s.alloc.Costs().Dealloc)
	s.res.Deallocs++
	t.State = thread.BlockedUnloaded
	t.Unloads++
	t.PollCost = 0
	s.res.Unloads++
	s.failMin = 0 // capacity increased
}

// idleToNextEvent stalls the processor until the next fault
// completion.
func (s *state) idleToNextEvent() {
	next, ok := s.events.PeekTime()
	if !ok {
		panic("node: deadlock: nothing runnable and no pending events")
	}
	idle := next - s.events.Now()
	if idle > 0 {
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Record(s.events.Now(), idle, -1, stats.Idle)
		}
		s.acct.Charge(stats.Idle, idle)
		s.events.AdvanceTo(next)
	}
}
