// Package sim provides a minimal discrete-event simulation kernel: a
// cycle clock and a time-ordered event queue. It stands in for the
// PROTEUS simulator the paper used (Brewer et al., cited as [6]): the
// register relocation experiments only exercise PROTEUS as a
// single-node engine that interleaves computation segments with
// stochastic fault-completion events, which is exactly what this
// package supports.
//
// The queue is generic over its payload type and stores events by
// value in one slice kept sorted by due time, so scheduling and popping
// do not allocate in steady state: no per-event heap object, no
// interface boxing. The node simulator schedules one event per
// simulated fault — millions per sweep — which made the previous
// *Event + Payload any design the top allocation site of the whole
// repository. Its completions mostly arrive in due-time order (every
// one, under a constant fault latency), so a new event usually lands at
// the back of the slice and a pop takes the front, both in O(1).
//
// Calendar is the same contract for dense traffic — over a thousand
// pending events, nearly all due within a few hundred cycles — as in
// the network co-simulation: a ring of per-cycle buckets makes every
// schedule and pop O(1) however the due times arrive.
package sim

import "fmt"

// Cycles is a simulation timestamp in processor cycles.
type Cycles = int64

// entry is one pending event, stored by value in the queue's slice.
type entry[T any] struct {
	at      Cycles
	payload T
}

// Queue is a discrete-event queue with a monotonic clock. The zero
// value is ready to use at time 0.
//
// Pending events sit in one slice sorted by due time, equal times in
// schedule order, and pop from its front. Schedule finds a new event's
// place by scanning back from the newest entry, so it costs O(1) when
// the event falls due at or after every pending one and O(pending)
// otherwise: each pending event due later moves back one slot. Pops are
// O(1). Popped slots at the front are reclaimed when the queue drains,
// or by one copy when the slice is full and at least half of it has
// been popped.
type Queue[T any] struct {
	now    Cycles
	events []entry[T] // events[head:] are pending, sorted by (at, schedule order)
	head   int
}

// Now returns the current simulation time.
func (q *Queue[T]) Now() Cycles { return q.now }

// Reset returns the queue to time 0 with no pending events, retaining
// the slice's capacity so a reused queue schedules without allocating.
// Pending payloads are zeroed so they do not pin their referents.
func (q *Queue[T]) Reset() {
	clear(q.events[q.head:])
	q.events = q.events[:0]
	q.head = 0
	q.now = 0
}

// AdvanceTo moves the clock to t (>= Now). It may move the clock past
// pending events: they simply become due and are delivered by the next
// PopDue.
func (q *Queue[T]) AdvanceTo(t Cycles) {
	if t < q.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) before now (%d)", t, q.now))
	}
	q.now = t
}

// Schedule enqueues payload to occur at absolute time at (>= Now),
// after every pending event due at or before at.
func (q *Queue[T]) Schedule(at Cycles, payload T) {
	if at < q.now {
		panic(fmt.Sprintf("sim: scheduling at %d in the past (now %d)", at, q.now))
	}
	if len(q.events) == cap(q.events) && 2*q.head >= len(q.events) {
		// Reclaim the popped front instead of growing the slice.
		n := copy(q.events, q.events[q.head:])
		clear(q.events[n:])
		q.events, q.head = q.events[:n], 0
	}
	q.events = append(q.events, entry[T]{})
	i := len(q.events) - 1
	for i > q.head && q.events[i-1].at > at {
		q.events[i] = q.events[i-1]
		i--
	}
	q.events[i] = entry[T]{at: at, payload: payload}
}

// After enqueues payload d cycles from now.
func (q *Queue[T]) After(d Cycles, payload T) {
	q.Schedule(q.now+d, payload)
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.events) - q.head }

// PeekTime returns the due time of the earliest pending event, or ok =
// false if the queue is empty.
func (q *Queue[T]) PeekTime() (Cycles, bool) {
	if q.head == len(q.events) {
		return 0, false
	}
	return q.events[q.head].at, true
}

// PopDue removes and returns the earliest payload if it is due at or
// before the current time; ok is false when nothing is due.
func (q *Queue[T]) PopDue() (payload T, ok bool) {
	if q.head == len(q.events) || q.events[q.head].at > q.now {
		return payload, false
	}
	return q.pop(), true
}

// PopNext removes and returns the earliest payload regardless of the
// clock, advancing the clock to its time; ok is false when empty.
func (q *Queue[T]) PopNext() (payload T, ok bool) {
	if q.head == len(q.events) {
		return payload, false
	}
	q.now = q.events[q.head].at
	return q.pop(), true
}

// pop removes the front entry. Its slot is zeroed so pointer payloads
// do not pin their referents, and a drained queue starts again from the
// front of its slice, whose capacity is retained: that is what makes
// the schedule/pop cycle allocation-free once the queue has warmed up.
func (q *Queue[T]) pop() T {
	e := &q.events[q.head]
	payload := e.payload
	*e = entry[T]{}
	q.head++
	if q.head == len(q.events) {
		q.events = q.events[:0]
		q.head = 0
	}
	return payload
}
