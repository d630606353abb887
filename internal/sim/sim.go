// Package sim provides a minimal discrete-event simulation kernel: a
// cycle clock and a time-ordered event queue. It stands in for the
// PROTEUS simulator the paper used (Brewer et al., cited as [6]): the
// register relocation experiments only exercise PROTEUS as a
// single-node engine that interleaves computation segments with
// stochastic fault-completion events, which is exactly what this
// package supports.
//
// The queue is generic over its payload type and stores events by
// value in a hand-rolled binary heap, so scheduling and popping do not
// allocate in steady state: no per-event heap object, no interface
// boxing, no heap.Interface method dispatch. The node simulator
// schedules one event per simulated fault — millions per sweep — which
// made the previous *Event + Payload any design the top allocation
// site of the whole repository.
//
// Calendar is the same contract for dense traffic — over a thousand
// pending events, nearly all due within a few hundred cycles — as in
// the network co-simulation: a ring of per-cycle buckets replaces the
// heap's O(log n) sifts with O(1) bucket operations.
package sim

import "fmt"

// Cycles is a simulation timestamp in processor cycles.
type Cycles = int64

// entry is one pending event, stored by value in the heap slice.
type entry[T any] struct {
	at      Cycles
	seq     uint64 // tie-break so equal-time events pop FIFO
	payload T
}

// Queue is a discrete-event queue with a monotonic clock. The zero
// value is ready to use at time 0.
type Queue[T any] struct {
	now     Cycles
	events  []entry[T] // binary min-heap by (at, seq)
	nextSeq uint64
}

// Now returns the current simulation time.
func (q *Queue[T]) Now() Cycles { return q.now }

// Reset returns the queue to time 0 with no pending events, retaining
// the heap slice's capacity so a reused queue schedules without
// allocating. Pending payloads are zeroed so they do not pin their
// referents.
func (q *Queue[T]) Reset() {
	for i := range q.events {
		q.events[i] = entry[T]{}
	}
	q.events = q.events[:0]
	q.now = 0
	q.nextSeq = 0
}

// Advance moves the clock forward by d cycles. It panics on negative d
// and on advancing past a pending event (events must be drained first
// with PopDue; advancing exactly onto an event's due time is allowed).
// Callers that intentionally let the clock overrun pending events —
// e.g. a processor that only notices fault completions at its next
// context switch — must use AdvanceTo, which documents that intent.
func (q *Queue[T]) Advance(d Cycles) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", d))
	}
	if len(q.events) > 0 && q.now+d > q.events[0].at {
		panic(fmt.Sprintf("sim: Advance(%d) from %d past pending event at %d; drain due events first or use AdvanceTo",
			d, q.now, q.events[0].at))
	}
	q.now += d
}

// AdvanceTo moves the clock to t (>= Now). Unlike Advance, it may move
// the clock past pending events: they simply become due and are
// delivered by the next PopDue.
func (q *Queue[T]) AdvanceTo(t Cycles) {
	if t < q.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) before now (%d)", t, q.now))
	}
	q.now = t
}

// Schedule enqueues payload to occur at absolute time at (>= Now).
func (q *Queue[T]) Schedule(at Cycles, payload T) {
	if at < q.now {
		panic(fmt.Sprintf("sim: scheduling at %d in the past (now %d)", at, q.now))
	}
	q.nextSeq++
	q.events = append(q.events, entry[T]{at: at, seq: q.nextSeq, payload: payload})
	q.up(len(q.events) - 1)
}

// After enqueues payload d cycles from now.
func (q *Queue[T]) After(d Cycles, payload T) {
	q.Schedule(q.now+d, payload)
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.events) }

// PeekTime returns the due time of the earliest pending event, or ok =
// false if the queue is empty.
func (q *Queue[T]) PeekTime() (Cycles, bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].at, true
}

// PopDue removes and returns the earliest payload if it is due at or
// before the current time; ok is false when nothing is due.
func (q *Queue[T]) PopDue() (payload T, ok bool) {
	if len(q.events) == 0 || q.events[0].at > q.now {
		var zero T
		return zero, false
	}
	payload = q.events[0].payload
	q.removeRoot()
	return payload, true
}

// PopNext removes and returns the earliest payload regardless of the
// clock, advancing the clock to its time; ok is false when empty.
func (q *Queue[T]) PopNext() (payload T, ok bool) {
	if len(q.events) == 0 {
		var zero T
		return zero, false
	}
	payload = q.events[0].payload
	q.now = q.events[0].at
	q.removeRoot()
	return payload, true
}

// removeRoot deletes the earliest entry, restoring heap order. The
// vacated tail slot is zeroed so pointer payloads do not pin their
// referents; the slice's capacity is retained, which is what makes the
// schedule/pop cycle allocation-free once the queue has warmed up.
func (q *Queue[T]) removeRoot() {
	n := len(q.events) - 1
	q.events[0] = q.events[n]
	q.events[n] = entry[T]{}
	q.events = q.events[:n]
	q.down(0)
}

// less orders the heap by due time, then FIFO by sequence.
func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.events[i], &q.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up restores the heap invariant after inserting at index i.
func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.events[i], q.events[parent] = q.events[parent], q.events[i]
		i = parent
	}
}

// down restores the heap invariant after replacing index i.
func (q *Queue[T]) down(i int) {
	n := len(q.events)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.events[i], q.events[child] = q.events[child], q.events[i]
		i = child
	}
}
