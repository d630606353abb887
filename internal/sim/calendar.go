package sim

import (
	"fmt"
	"math/bits"
)

// calendarSpan is the number of one-cycle buckets in a Calendar's
// ring, a power of two. The network co-simulation schedules nearly
// every event within a few dozen cycles (a transit, or a Poisson issue
// gap around 20 cycles at the rates the scaling experiment reaches),
// so events due beyond the span are rare there and wait in the
// overflow queue.
const (
	calendarSpan  = 256
	calendarMask  = calendarSpan - 1
	calendarWords = calendarSpan / 64
)

// calNode is one ring event: its payload and the slab index of the
// next event in the same bucket.
type calNode[T any] struct {
	payload T
	next    int32
}

// Calendar is a discrete-event queue for dense traffic: many pending
// events, nearly all due within calendarSpan cycles of the clock. It
// pops events in exactly Queue's order — by due time, FIFO among equal
// times — at O(1) per operation however due times arrive, where a Queue
// pays O(pending) for each event due before others already pending.
//
// The ring holds one FIFO bucket per cycle of [Now, Now+calendarSpan),
// each a linked list through a shared slab, with an occupancy bitmap
// to find the next non-empty bucket. Events due later wait in an
// overflow Queue. Whenever the clock advances, the overflow events
// that came within the span move into their buckets before anything
// else can be scheduled at their times, so every bucket stays in
// schedule order. The slab, its free list and the overflow queue keep
// their capacity across Reset, so a reused Calendar schedules and pops
// without allocating.
//
// The node simulator keeps Queue: its few dozen sparse fault
// completions gain nothing from a ring and would pay for its scans.
// The zero value is ready to use at time 0.
type Calendar[T any] struct {
	now Cycles
	// head and tail index the slab nodes of each bucket's first and
	// last event; they are meaningful only where occ has the bucket's
	// bit set.
	head, tail [calendarSpan]int32
	occ        [calendarWords]uint64
	slab       []calNode[T]
	free       []int32  // slab indices available for reuse
	inRing     int      // events in the ring (not in overflow)
	overflow   Queue[T] // events due at or after now+calendarSpan
}

// Now returns the current simulation time.
func (c *Calendar[T]) Now() Cycles { return c.now }

// Len returns the number of pending events.
func (c *Calendar[T]) Len() int { return c.inRing + c.overflow.Len() }

// Reset returns the calendar to time 0 with no pending events,
// retaining its storage. Pending payloads are zeroed so they do not
// pin their referents.
func (c *Calendar[T]) Reset() {
	clear(c.slab)
	c.slab = c.slab[:0]
	c.free = c.free[:0]
	c.occ = [calendarWords]uint64{}
	c.inRing = 0
	c.now = 0
	c.overflow.Reset()
}

// Schedule enqueues payload to occur at absolute time at (>= Now).
func (c *Calendar[T]) Schedule(at Cycles, payload T) {
	if at < c.now {
		panic(fmt.Sprintf("sim: scheduling at %d in the past (now %d)", at, c.now))
	}
	if at-c.now >= calendarSpan {
		c.overflow.Schedule(at, payload)
		return
	}
	c.push(at, payload)
}

// After enqueues payload d cycles from now.
func (c *Calendar[T]) After(d Cycles, payload T) {
	c.Schedule(c.now+d, payload)
}

// PopNext removes and returns the earliest payload, advancing the
// clock to its time; ok is false when empty.
func (c *Calendar[T]) PopNext() (payload T, ok bool) {
	if c.inRing == 0 {
		at, ok := c.overflow.PeekTime()
		if !ok {
			return payload, false
		}
		c.advance(at)
	} else if next := c.nextOccupied(); next != c.now {
		c.advance(next)
	}
	return c.pop(c.now & calendarMask), true
}

// advance moves the clock to t and pulls the overflow events now
// within the span into their buckets, earliest (and, within a time,
// first scheduled) first.
func (c *Calendar[T]) advance(t Cycles) {
	c.now = t
	for {
		at, ok := c.overflow.PeekTime()
		if !ok || at-t >= calendarSpan {
			return
		}
		payload, _ := c.overflow.PopNext()
		c.push(at, payload)
	}
}

// nextOccupied returns the due time of the earliest ring event. The
// ring must be non-empty. Buckets in slot order from the clock's slot,
// wrapping, are in time order because the ring holds exactly one span.
func (c *Calendar[T]) nextOccupied() Cycles {
	slot := int(c.now & calendarMask)
	w := slot >> 6
	if m := c.occ[w] >> (slot & 63); m != 0 {
		return c.now + Cycles(bits.TrailingZeros64(m))
	}
	for i := 1; i <= calendarWords; i++ {
		ww := (w + i) % calendarWords
		if m := c.occ[ww]; m != 0 {
			next := ww<<6 + bits.TrailingZeros64(m)
			return c.now + Cycles((next-slot)&calendarMask)
		}
	}
	panic("sim: calendar ring count out of sync with its bitmap")
}

// push appends payload to the FIFO bucket of time at, which must lie
// within the span.
func (c *Calendar[T]) push(at Cycles, payload T) {
	var idx int32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
		c.slab[idx] = calNode[T]{payload: payload}
	} else {
		idx = int32(len(c.slab))
		c.slab = append(c.slab, calNode[T]{payload: payload})
	}
	b := at & calendarMask
	if bit := uint64(1) << (b & 63); c.occ[b>>6]&bit == 0 {
		c.occ[b>>6] |= bit
		c.head[b] = idx
	} else {
		c.slab[c.tail[b]].next = idx
	}
	c.tail[b] = idx
	c.inRing++
}

// pop removes and returns the first event of the non-empty bucket b.
func (c *Calendar[T]) pop(b Cycles) T {
	idx := c.head[b]
	n := &c.slab[idx]
	payload := n.payload
	if idx == c.tail[b] {
		c.occ[b>>6] &^= uint64(1) << (b & 63)
	} else {
		c.head[b] = n.next
	}
	*n = calNode[T]{}
	c.free = append(c.free, idx)
	c.inRing--
	return payload
}
