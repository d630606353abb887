// Package sched provides the scheduling data structures of the paper's
// software runtime, in the form the node simulator consumes: the
// circular ring of resident contexts (the linked list of NextRRM masks
// from Section 2.2, generalized to multiple priority classes) and the
// FIFO queue of runnable-but-unloaded threads (the "local thread
// queue" whose insert/remove operations cost 10 cycles in Figure 4).
//
// Both structures sit on the simulator's per-fault hot path, so both
// are engineered to be allocation-free in steady state: the ring keeps
// its nodes in a slice indexed by thread ID and exposes the
// zero-allocation Each iterator (Threads, which builds a fresh slice,
// is for inspection only), and the FIFO reuses its backing array
// through a head index instead of re-slicing capacity away.
package sched

import (
	"fmt"

	"regreloc/internal/thread"
)

// ringNode links one thread into the circular list. Links are thread
// IDs, the indexes of the neighbours' nodes.
type ringNode struct {
	t          *thread.Thread // nil while the thread is not in the ring
	prev, next int
}

// Ring is the circular list of resident contexts, mirroring the
// NextRRM chain: the scheduler's round-robin pointer advances through
// it on every context switch. Blocked contexts remain in the ring (the
// hardware has no idea a context is blocked; software probes them),
// matching the switch-and-test behaviour the paper's S=8 switch cost
// allows for.
type Ring struct {
	// nodes[id] is the node of the thread with that ID. Thread IDs are
	// dense from 0, so Add and Remove index instead of hashing, and the
	// slice grown for one population serves every later one of the
	// same size without allocating.
	nodes []ringNode
	cur   int // ID at the round-robin pointer; meaningless when size is 0
	size  int
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{} }

// Len returns the number of resident contexts in the ring.
func (r *Ring) Len() int { return r.size }

// Add inserts t just before the current position (so a full rotation
// visits it last), mirroring a NextRRM link splice.
func (r *Ring) Add(t *thread.Thread) {
	id := t.ID
	if id >= len(r.nodes) {
		r.nodes = append(r.nodes, make([]ringNode, id+1-len(r.nodes))...)
	}
	n := &r.nodes[id]
	if n.t != nil {
		panic(fmt.Sprintf("sched: thread %d already in ring", id))
	}
	n.t = t
	if r.size == 0 {
		n.prev, n.next = id, id
		r.cur = id
	} else {
		c := &r.nodes[r.cur]
		n.prev, n.next = c.prev, r.cur
		r.nodes[c.prev].next = id
		c.prev = id
	}
	r.size++
}

// Remove unlinks t from the ring.
func (r *Ring) Remove(t *thread.Thread) {
	if !r.Contains(t) {
		panic(fmt.Sprintf("sched: thread %d not in ring", t.ID))
	}
	n := &r.nodes[t.ID]
	n.t = nil
	r.size--
	if r.size == 0 {
		return
	}
	r.nodes[n.prev].next = n.next
	r.nodes[n.next].prev = n.prev
	if r.cur == t.ID {
		r.cur = n.next
	}
}

// Current returns the thread at the round-robin pointer, or nil when
// empty.
func (r *Ring) Current() *thread.Thread {
	if r.size == 0 {
		return nil
	}
	return r.nodes[r.cur].t
}

// NextRunnable advances at most Len() positions looking for a runnable
// (ready-resident) thread, starting with the next context. It returns
// the thread and the number of positions advanced, or (nil, Len()) if
// no resident context is runnable. The pointer is left on the returned
// thread (or back where it started on failure after a full rotation).
func (r *Ring) NextRunnable() (*thread.Thread, int) {
	for i := 1; i <= r.size; i++ {
		r.cur = r.nodes[r.cur].next
		if t := r.nodes[r.cur].t; t.Runnable() {
			return t, i
		}
	}
	return nil, r.size
}

// Each visits the resident threads in ring order starting at the
// current position, without allocating, stopping early when fn returns
// false. The round-robin pointer does not move. fn may remove the
// thread it is visiting (or mutate thread states) provided it then
// stops the iteration; other structural changes mid-iteration are not
// supported.
func (r *Ring) Each(fn func(*thread.Thread) bool) {
	id := r.cur
	for i := 0; i < r.size; i++ {
		n := &r.nodes[id]
		id = n.next
		if !fn(n.t) {
			return
		}
	}
}

// Contains reports whether t is in the ring.
func (r *Ring) Contains(t *thread.Thread) bool {
	return t.ID >= 0 && t.ID < len(r.nodes) && r.nodes[t.ID].t == t
}

// FIFO is the local thread queue of runnable-but-unloaded threads. The
// zero value is an empty queue. Popped slots are reused: the backing
// array is compacted instead of re-sliced away, so a long-running
// simulation's push/pop churn settles into zero allocations.
type FIFO struct {
	items []*thread.Thread
	head  int
	// minRegs caches MinRegs; minDirty forces a rescan after the
	// cached minimum may have left the queue.
	minRegs  int
	minDirty bool
}

// Len returns the queue length.
func (q *FIFO) Len() int { return len(q.items) - q.head }

// Push appends t.
func (q *FIFO) Push(t *thread.Thread) {
	if !q.minDirty && (q.Len() == 0 || t.Regs < q.minRegs) {
		q.minRegs = t.Regs
	}
	q.items = append(q.items, t)
}

// PopFit removes and returns the oldest queued thread that fit
// accepts, or nil if it accepts none. The runtime uses this for
// first-fit admission: when the registers freed by an unload cannot
// hold the queue head's context, a smaller queued thread can still be
// admitted — scheduling order is under software control (Section 2.2).
//
// fit must be monotone in the register requirement: once it rejects a
// thread needing r registers, it rejects every thread needing r or
// more, for as long as the caller keeps *bound. *bound carries that
// knowledge across calls (0 means nothing is known): PopFit asks fit
// only about threads needing fewer than *bound registers, lowers *bound
// to the requirement of each thread fit rejects, and gives up as soon
// as *bound reaches MinRegs, since every queued thread then needs at
// least that many.
func (q *FIFO) PopFit(bound *int, fit func(*thread.Thread) bool) *thread.Thread {
	min := q.MinRegs()
	if *bound != 0 && *bound <= min {
		return nil
	}
	for i := q.head; i < len(q.items); i++ {
		t := q.items[i]
		if *bound != 0 && t.Regs >= *bound {
			continue
		}
		if !fit(t) {
			*bound = t.Regs
			if t.Regs == min {
				return nil // every queued thread needs at least min
			}
			continue
		}
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = nil
		q.items = q.items[:len(q.items)-1]
		q.compact()
		q.dropMin(t)
		return t
	}
	return nil
}

// MinRegs returns the smallest register requirement among queued
// threads, or 0 when empty. The runtime calls it on every admission
// pass to decide whether any queued thread could possibly fit, so the
// value is cached: pushes maintain it incrementally and only a pop
// that removes the current minimum forces a rescan.
func (q *FIFO) MinRegs() int {
	if q.Len() == 0 {
		return 0
	}
	if q.minDirty {
		min := 0
		for _, t := range q.items[q.head:] {
			if min == 0 || t.Regs < min {
				min = t.Regs
			}
		}
		q.minRegs = min
		q.minDirty = false
	}
	return q.minRegs
}

// dropMin invalidates the cached minimum if the removed thread could
// have been carrying it.
func (q *FIFO) dropMin(t *thread.Thread) {
	if !q.minDirty && t.Regs == q.minRegs {
		q.minDirty = true
	}
}

// compact reclaims the popped prefix once it dominates the backing
// array, keeping the array from growing without bound when the queue
// never fully drains.
func (q *FIFO) compact() {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return
	}
	if q.head > 32 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
}
