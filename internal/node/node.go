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
	// WindowHead and WindowTail are the fractions of total useful work
	// excluded from measurement at either end (default 0.1 each),
	// matching the paper's transient exclusion.
	WindowHead, WindowTail float64
	// Tracer, when non-nil, records a cycle-level activity timeline
	// (see internal/trace). Tracing does not perturb the simulation.
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
	if c.WindowHead == 0 && c.WindowTail == 0 {
		c.WindowHead, c.WindowTail = 0.1, 0.1
	}
	return c
}

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

// statePool recycles simulation state — the event heap, the scheduling
// ring's nodes and map, the FIFO's backing array, and the generated
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
	s.totalWork = workload.TotalWork(threads)
	s.window = stats.NewWindow(cfg.WindowHead, cfg.WindowTail)
	s.runLen = rng.NewSampler(spec.RunLen)
	s.latency = spec.Latency
	s.src = src.Split()
	s.acct = stats.CycleAccount{}
	s.failMin = 0
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
	s.window = nil
	s.runLen, s.latency = rng.Sampler{}, nil
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
	window *stats.Window

	// threadBuf holds the generated population; the slice and its
	// Thread structs are recycled across runs via the state pool.
	threadBuf []*thread.Thread

	runLen  rng.Sampler // the run-length Dist with its constants hoisted
	latency rng.Dist
	src     *rng.Source

	totalWork int64
	// failMin is the smallest register requirement that failed to
	// allocate since the last capacity increase; 0 means allocation
	// should be attempted. The runtime tracks free space cheaply, so
	// repeated hopeless attempts are neither made nor charged.
	failMin int

	// residentIntegral accumulates ring.Len() x elapsed cycles for the
	// time-averaged resident-context count; wasteIntegral does the same
	// for currently wasted registers.
	residentIntegral int64
	wasteIntegral    int64
	currentWaste     int64
	lastResidentAt   sim.Cycles

	res Result
}

// charge accounts cycles and advances the clock, keeping the
// resident-context integral and measurement window up to date.
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

// processDueEvents handles fault completions due at or before now.
func (s *state) processDueEvents() {
	for {
		// PeekTime and Now inline but PopDue does not, so checking
		// first skips a call on the common path, where nothing is due.
		if at, ok := s.events.PeekTime(); !ok || at > s.events.Now() {
			return
		}
		t, _ := s.events.PopDue()
		switch t.State {
		case thread.BlockedResident:
			t.State = thread.ReadyResident
			t.PollCost = 0
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
func (s *state) fill() {
	for s.queue.Len() > 0 {
		if s.failMin != 0 && s.queue.MinRegs() >= s.failMin {
			return // nothing new could fit; no fresh attempt to charge
		}
		var ctx alloc.Context
		t := s.queue.PopFit(func(cand *thread.Thread) bool {
			c, ok := s.alloc.Alloc(cand.Regs)
			if ok {
				ctx = c
			}
			return ok
		})
		if t == nil {
			s.alloc.Costs().ChargeAlloc(&s.acct, false)
			s.advanceClock(s.alloc.Costs().AllocFail)
			s.res.AllocFails++
			s.failMin = s.queue.MinRegs()
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
		s.ring.Add(t)
		s.currentWaste += int64(ctx.Size - t.Regs)
		if s.ring.Len() > s.res.MaxResident {
			s.res.MaxResident = s.ring.Len()
		}
	}
}

// advanceClock moves time forward for cycles already charged to the
// account by an external cost model.
func (s *state) advanceClock(n int64) {
	if n == 0 {
		return
	}
	s.residentIntegral += int64(s.ring.Len()) * (s.events.Now() + n - s.lastResidentAt)
	s.wasteIntegral += s.currentWaste * (s.events.Now() + n - s.lastResidentAt)
	s.lastResidentAt = s.events.Now() + n
	// AdvanceTo, not Advance: charged cycles (run segments, runtime
	// operations) intentionally overrun pending fault completions — the
	// processor only notices them at the next switch (processDueEvents),
	// which the strict Advance would reject.
	s.events.AdvanceTo(s.events.Now() + n)
	if !s.window.Done() {
		s.window.MaybeSnapshot(&s.acct, s.acct.Get(stats.Useful), s.totalWork)
	}
}

// nextRunnable returns a runnable resident thread, preferring the
// current ring position, or nil.
func (s *state) nextRunnable() *thread.Thread {
	cur := s.ring.Current()
	if cur != nil && cur.Runnable() {
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
	cur.WorkLeft -= run
	s.processDueEvents()

	if cur.WorkLeft == 0 {
		cur.State = thread.Done
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
func (s *state) trySwitchSpin() bool {
	if s.queue.Len() == 0 || s.ring.Len() == 0 {
		return false
	}
	// Each iterates the live ring without allocating a snapshot; the
	// probe loop never changes ring membership except when it stops
	// (resuming or unloading the probed context).
	progressed := false
	resumed := false
	s.ring.Each(func(t *thread.Thread) bool {
		if t.State != thread.BlockedResident {
			return true
		}
		// Probe: switch in, test, fail, switch away.
		s.chargeFor(stats.Spin, s.cfg.ProbeCost, t.ID)
		t.PollCost += s.cfg.ProbeCost
		s.res.Probes++
		progressed = true
		s.processDueEvents()
		if t.State != thread.BlockedResident {
			// Its fault completed while probing; run it.
			resumed = true
			return false
		}
		if s.cfg.Policy.ShouldUnload(t) {
			s.unload(t)
			resumed = true
			return false
		}
		return true
	})
	return progressed || resumed
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
		s.residentIntegral += int64(s.ring.Len()) * (next - s.lastResidentAt)
		s.wasteIntegral += s.currentWaste * (next - s.lastResidentAt)
		s.lastResidentAt = next
		s.acct.Charge(stats.Idle, idle)
		s.events.AdvanceTo(next)
		if !s.window.Done() {
			s.window.MaybeSnapshot(&s.acct, s.acct.Get(stats.Useful), s.totalWork)
		}
	}
}
