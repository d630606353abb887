package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"regreloc/internal/testutil"
)

// eventQueue is the method set Calendar shares with Queue, so one
// benchmark body drives both.
type eventQueue[T any] interface {
	Schedule(at Cycles, payload T)
	PopNext() (T, bool)
	Now() Cycles
}

// calOp is one step of a differential schedule: a pop, or a schedule
// delay cycles from now.
type calOp struct {
	pop   bool
	delay Cycles
}

// decodeOps turns random words into a schedule that stresses the
// calendar's edges: equal timestamps (delays drawn from a handful of
// values), delays on both sides of the span boundary, and delays far
// beyond it, so the ring regularly drains with only overflow left.
func decodeOps(words []uint32) []calOp {
	ops := make([]calOp, len(words))
	for i, w := range words {
		v := Cycles(w >> 4)
		switch w & 15 {
		case 0, 1, 2, 3, 4, 5:
			ops[i] = calOp{pop: true}
		case 6, 7:
			ops[i] = calOp{delay: v % 4} // equal timestamps
		case 8, 9:
			ops[i] = calOp{delay: v % 64}
		case 10:
			ops[i] = calOp{delay: calendarSpan - 2 + v%4} // straddle the span
		case 11, 12:
			ops[i] = calOp{delay: v % calendarSpan}
		case 13, 14:
			ops[i] = calOp{delay: calendarSpan + v%(3*calendarSpan)}
		default:
			ops[i] = calOp{delay: v % (64 * calendarSpan)}
		}
	}
	return ops
}

// matchesQueue replays ops on a Calendar and on the reference Queue,
// then drains both, and reports the first step where they disagree on
// a popped (time, payload) pair or on the pending count.
func matchesQueue(t *testing.T, c *Calendar[int], ops []calOp) bool {
	t.Helper()
	var q Queue[int]
	step := func(i int, op calOp) bool {
		if op.pop {
			cp, cok := c.PopNext()
			qp, qok := q.PopNext()
			if cp != qp || cok != qok || c.Now() != q.Now() {
				t.Errorf("op %d: calendar popped (%d, %d, %v), queue (%d, %d, %v)",
					i, c.Now(), cp, cok, q.Now(), qp, qok)
				return false
			}
		} else {
			c.Schedule(c.Now()+op.delay, i)
			q.Schedule(q.Now()+op.delay, i)
		}
		if c.Len() != q.Len() {
			t.Errorf("op %d: calendar holds %d events, queue %d", i, c.Len(), q.Len())
			return false
		}
		return true
	}
	for i, op := range ops {
		if !step(i, op) {
			return false
		}
	}
	for i := len(ops); q.Len() > 0; i++ {
		if !step(i, calOp{pop: true}) {
			return false
		}
	}
	_, ok := c.PopNext()
	return !ok
}

// TestCalendarMatchesQueue is the calendar's differential property:
// over random interleavings of schedules and pops, it pops exactly the
// (time, payload) sequence of the sorted-slice Queue.
func TestCalendarMatchesQueue(t *testing.T) {
	var c Calendar[int]
	f := func(words []uint32) bool {
		c.Reset() // reused storage must behave like a fresh calendar
		return matchesQueue(t, &c, decodeOps(words))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCalendarMatchesQueueDense replays long dense schedules — over a
// thousand pending events, the network co-simulation's regime — with
// every delay class mixed in.
func TestCalendarMatchesQueueDense(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		words := make([]uint32, 50_000)
		for i := range words {
			words[i] = r.Uint32()
		}
		// Prime the queues so pops rarely find them empty.
		ops := make([]calOp, 0, 1500+len(words))
		for i := 0; i < 1500; i++ {
			ops = append(ops, calOp{delay: Cycles(r.IntN(96))})
		}
		var c Calendar[int]
		if !matchesQueue(t, &c, append(ops, decodeOps(words)...)) {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestCalendarOverflowPrecedesDirectSchedule pins the ordering rule at
// the span boundary: events that waited in overflow for a time were
// scheduled before any event scheduled at that time directly into the
// ring, so they pop first.
func TestCalendarOverflowPrecedesDirectSchedule(t *testing.T) {
	var c Calendar[string]
	far := Cycles(calendarSpan + 5)
	c.Schedule(far, "overflow-1")
	c.Schedule(far, "overflow-2")
	c.Schedule(10, "near")
	if p, _ := c.PopNext(); p != "near" || c.Now() != 10 {
		t.Fatalf("popped %q at %d, want near at 10", p, c.Now())
	}
	c.Schedule(far, "direct") // far is now within the span
	for _, want := range []string{"overflow-1", "overflow-2", "direct"} {
		if p, _ := c.PopNext(); p != want || c.Now() != far {
			t.Fatalf("popped %q at %d, want %q at %d", p, c.Now(), want, far)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after draining", c.Len())
	}
}

// TestCalendarOnlyOverflowLeft drains the ring while far events wait,
// so the clock must jump straight to the overflow's earliest event.
func TestCalendarOnlyOverflowLeft(t *testing.T) {
	var c Calendar[int]
	c.Schedule(3, 0)
	c.Schedule(5*calendarSpan, 2)
	c.Schedule(2*calendarSpan+1, 1)
	c.Schedule(5*calendarSpan, 3)
	for i, at := range []Cycles{3, 2*calendarSpan + 1, 5 * calendarSpan, 5 * calendarSpan} {
		p, ok := c.PopNext()
		if !ok || p != i || c.Now() != at {
			t.Fatalf("pop %d = (%d, %v) at %d, want %d at %d", i, p, ok, c.Now(), i, at)
		}
	}
	if _, ok := c.PopNext(); ok {
		t.Fatal("PopNext on an empty calendar")
	}
}

func TestCalendarSchedulePastPanics(t *testing.T) {
	var c Calendar[int]
	c.Schedule(10, 0)
	c.PopNext()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Schedule(9, 0)
}

func TestCalendarReset(t *testing.T) {
	var c Calendar[*int]
	payload := new(int)
	for i := 0; i < 100; i++ {
		c.Schedule(Cycles(i*7), payload)
	}
	c.PopNext()
	c.Reset()
	if c.Now() != 0 || c.Len() != 0 {
		t.Fatalf("after Reset: now %d, len %d", c.Now(), c.Len())
	}
	for _, n := range c.slab[:cap(c.slab)] {
		if n.payload != nil {
			t.Fatal("Reset left a payload pinned in the slab")
		}
	}
	c.After(4, payload)
	if p, ok := c.PopNext(); !ok || p != payload || c.Now() != 4 {
		t.Fatal("reset calendar did not deliver a new event")
	}
}

// TestCalendarScheduleAllocFree is the calendar's allocation gate,
// the counterpart of TestScheduleAllocFree: once its slab, free list
// and overflow queue have grown to their working size — here with ring
// and overflow traffic both — and across a Reset, a schedule/pop cycle
// must not allocate.
func TestCalendarScheduleAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	var c Calendar[*int]
	payload := new(int)
	warm := func() {
		for i := 0; i < 256; i++ {
			c.Schedule(Cycles(i%32), payload)
			c.Schedule(Cycles(calendarSpan+i), payload)
		}
		for c.Len() > 0 {
			c.PopNext()
		}
		c.Reset()
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(1000, func() {
		c.After(10, payload)
		c.After(5, payload)
		c.After(3*calendarSpan, payload)
		for i := 0; i < 3; i++ {
			if _, ok := c.PopNext(); !ok {
				t.Fatal("lost event")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("calendar schedule/pop cycle allocates %v times per run, want 0", allocs)
	}
}

// benchmarkDense holds ~1.3k events pending, each rescheduled 1–64
// cycles ahead when popped: the shape of the network co-simulation at
// P=512, where Calendar replaces Queue.
func benchmarkDense(b *testing.B, q eventQueue[int32]) {
	r := rand.New(rand.NewPCG(1, 2))
	delays := make([]Cycles, 4096)
	for i := range delays {
		delays[i] = 1 + Cycles(r.IntN(64))
	}
	for i := 0; i < 1300; i++ {
		q.Schedule(delays[i], int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := q.PopNext()
		if !ok {
			b.Fatal("lost event")
		}
		q.Schedule(q.Now()+delays[i&4095], p)
	}
}

func BenchmarkDenseSchedulePop(b *testing.B) {
	b.Run("queue", func(b *testing.B) { benchmarkDense(b, &Queue[int32]{}) })
	b.Run("calendar", func(b *testing.B) { benchmarkDense(b, &Calendar[int32]{}) })
}
