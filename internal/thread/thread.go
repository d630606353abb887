// Package thread models the synthetic threads of the paper's
// experiments (Section 3.1): each thread has a register requirement C,
// a total amount of useful work, and runs in segments whose lengths are
// drawn from the workload's run-length distribution, separated by
// faults whose service latencies come from the latency distribution.
package thread

import (
	"fmt"

	"regreloc/internal/alloc"
	"regreloc/internal/sim"
)

// State is a thread's scheduling state.
type State int

// Thread lifecycle states.
const (
	// Unstarted threads have never been admitted.
	Unstarted State = iota
	// ReadyUnloaded threads are runnable but hold no registers; they
	// wait in the unloaded ready queue for a context.
	ReadyUnloaded
	// ReadyResident threads hold a context and can run immediately.
	ReadyResident
	// BlockedResident threads hold a context but wait on a fault.
	BlockedResident
	// BlockedUnloaded threads wait on a fault and hold no registers
	// (they were unloaded by the two-phase policy).
	BlockedUnloaded
	// Done threads have completed all their work.
	Done
)

var stateNames = [...]string{
	"unstarted", "ready-unloaded", "ready-resident",
	"blocked-resident", "blocked-unloaded", "done",
}

// String returns the state name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Thread is one synthetic thread.
type Thread struct {
	// ID identifies the thread (dense, from 0).
	ID int
	// Regs is C: the number of registers the thread requires, as the
	// compiler would report (Section 2.4). Load/unload cost is based on
	// this, not on the allocated context size (Section 3.3).
	Regs int
	// WorkLeft is the remaining useful cycles until completion.
	WorkLeft int64

	// State is maintained by the node simulator.
	State State
	// Ctx is the allocated context while resident.
	Ctx alloc.Context
	// FaultDone is the completion time of the pending fault, if blocked.
	FaultDone sim.Cycles
	// PollCost accumulates the cycles wasted probing this thread's
	// blocked context (the two-phase competitive algorithm's first
	// phase, Section 3.3). Reset when the thread resumes or unloads.
	PollCost int64

	// Accounting.
	Faults      int64 // faults taken
	Switches    int64 // times scheduled
	LoadedTimes int64 // contexts loads (>= 1 once admitted)
	Unloads     int64 // times unloaded while blocked
}

// New returns a thread requiring regs registers with the given total
// work.
func New(id, regs int, work int64) *Thread {
	t := new(Thread)
	t.Init(id, regs, work)
	return t
}

// Init (re)initializes t in place, clearing all scheduling state and
// accounting. The workload generator uses it to recycle Thread structs
// across simulation runs, so a reused thread behaves identically to a
// freshly allocated one.
func (t *Thread) Init(id, regs int, work int64) {
	if regs <= 0 || work <= 0 {
		panic(fmt.Sprintf("thread: invalid thread %d: regs=%d work=%d", id, regs, work))
	}
	*t = Thread{ID: id, Regs: regs, WorkLeft: work}
}

// LoadCost returns the cycles to load this thread's registers into a
// context: 1 cycle per required register plus the fixed software
// blocking/unblocking overhead (Section 3.1: "an additional charge of
// 10 cycles was assessed").
func (t *Thread) LoadCost() int64 { return int64(t.Regs) + LoadOverhead }

// UnloadCost returns the cycles to unload this thread's registers,
// symmetric with LoadCost.
func (t *Thread) UnloadCost() int64 { return int64(t.Regs) + LoadOverhead }

// LoadOverhead is the fixed software overhead, in cycles, added to
// every context load and unload (blocking/unblocking bookkeeping).
const LoadOverhead = 10

// Runnable reports whether the thread can execute right now.
func (t *Thread) Runnable() bool { return t.State == ReadyResident }
