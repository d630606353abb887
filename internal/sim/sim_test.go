package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"regreloc/internal/testutil"
)

func TestClockAdvance(t *testing.T) {
	var q Queue[string]
	if q.Now() != 0 {
		t.Fatal("clock not at 0")
	}
	q.AdvanceTo(10)
	q.AdvanceTo(25)
	if q.Now() != 25 {
		t.Errorf("now = %d", q.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	var q Queue[string]
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.AdvanceTo(-1) // the clock never runs backwards
}

func TestAdvanceToMayPassPendingEvents(t *testing.T) {
	// AdvanceTo is the documented escape hatch for callers that notice
	// events late (the node simulator's run segments).
	var q Queue[string]
	q.Schedule(10, "x")
	q.AdvanceTo(25)
	if p, ok := q.PopDue(); !ok || p != "x" {
		t.Fatal("overrun event not delivered by PopDue")
	}
}

func TestAdvanceToPastPanics(t *testing.T) {
	var q Queue[string]
	q.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.AdvanceTo(5)
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue[int]
	q.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Schedule(5, 0)
}

func TestEventsPopInTimeOrder(t *testing.T) {
	var q Queue[string]
	q.Schedule(30, "c")
	q.Schedule(10, "a")
	q.Schedule(20, "b")
	var got []string
	for q.Len() > 0 {
		p, _ := q.PopNext()
		got = append(got, p)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("clock = %d after draining", q.Now())
	}
}

func TestEqualTimesPopFIFO(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Schedule(5, i)
	}
	for i := 0; i < 10; i++ {
		if got, _ := q.PopNext(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
}

func TestPopDueRespectsClock(t *testing.T) {
	var q Queue[string]
	q.Schedule(10, "x")
	if _, ok := q.PopDue(); ok {
		t.Fatal("event popped before due")
	}
	q.AdvanceTo(10)
	p, ok := q.PopDue()
	if !ok || p != "x" {
		t.Fatal("due event not popped")
	}
	if _, ok := q.PopDue(); ok {
		t.Fatal("pop from empty")
	}
}

func TestAfter(t *testing.T) {
	var q Queue[int]
	q.AdvanceTo(100)
	q.After(50, 7)
	if at, ok := q.PeekTime(); !ok || at != 150 {
		t.Errorf("After scheduled at %d (ok=%v)", at, ok)
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue[int]
	if _, ok := q.PeekTime(); ok {
		t.Fatal("peek on empty")
	}
	q.Schedule(42, 0)
	if at, ok := q.PeekTime(); !ok || at != 42 {
		t.Errorf("peek = %d, %v", at, ok)
	}
}

func TestPopNextEmpty(t *testing.T) {
	var q Queue[int]
	if _, ok := q.PopNext(); ok {
		t.Fatal("PopNext on empty queue")
	}
}

// refQueue is the order Queue must pop in, stated as directly as
// possible: pending events kept in schedule order, and each pop takes
// the first of a stable sort by due time. A payload is its event's
// schedule index, so equal times must pop in index order.
type refQueue struct {
	now     Cycles
	pending []refEvent
}

type refEvent struct {
	at  Cycles
	idx int
}

// front returns the event a pop must deliver, or ok = false when none
// is pending.
func (r *refQueue) front() (refEvent, bool) {
	if len(r.pending) == 0 {
		return refEvent{}, false
	}
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
	return r.pending[0], true
}

// queueOp is one step of a random queue workout.
type queueOp struct {
	kind  byte // 's'chedule, 'p'opNext, 'd'rain due after AdvanceTo, 'r'eset
	delay Cycles
}

// decodeQueueOps turns random words into a workout with ties (delays
// from a handful of values), times that arrive out of order (a short
// delay after long ones), clock jumps past pending events, and resets
// mid-stream.
func decodeQueueOps(words []uint32) []queueOp {
	ops := make([]queueOp, len(words))
	for i, w := range words {
		v := Cycles(w >> 5)
		switch w & 31 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
			ops[i] = queueOp{kind: 'p'}
		case 10, 11:
			ops[i] = queueOp{kind: 'd', delay: v % 48}
		case 12:
			if v%16 == 0 { // rare, so long streams build deep queues
				ops[i] = queueOp{kind: 'r'}
			} else {
				ops[i] = queueOp{kind: 's', delay: v % 4}
			}
		case 13, 14, 15, 16, 17:
			ops[i] = queueOp{kind: 's', delay: v % 4}
		case 18, 19, 20, 21, 22:
			ops[i] = queueOp{kind: 's', delay: v % 64}
		case 23, 24, 25, 26:
			ops[i] = queueOp{kind: 's', delay: 64 + v%64} // the exponential-latency shape
		default:
			ops[i] = queueOp{kind: 's', delay: v % 4096}
		}
	}
	return ops
}

// TestQueueMatchesStableSort is the queue's order contract: over random
// interleavings of schedules and pops, on one queue reused through
// Reset, every pop delivers the earliest pending event and, among equal
// times, the first scheduled, exactly as refQueue does.
func TestQueueMatchesStableSort(t *testing.T) {
	var q Queue[int]
	f := func(words []uint32) bool {
		q.Reset()
		var ref refQueue
		pop := func(i int, due bool) bool {
			want, ok := ref.front()
			if due && ok && want.at > ref.now {
				ok = false
			}
			var got int
			var gotOK bool
			if due {
				got, gotOK = q.PopDue()
			} else {
				got, gotOK = q.PopNext()
			}
			if ok {
				ref.pending = ref.pending[1:]
				if !due {
					ref.now = want.at
				}
			}
			if gotOK != ok || ok && got != want.idx || q.Now() != ref.now {
				t.Errorf("op %d: popped (%d, %v) at %d; want (%d, %v) at %d",
					i, got, gotOK, q.Now(), want.idx, ok, ref.now)
				return false
			}
			return ok
		}
		for i, op := range decodeQueueOps(words) {
			switch op.kind {
			case 's':
				q.Schedule(q.Now()+op.delay, i)
				ref.pending = append(ref.pending, refEvent{at: ref.now + op.delay, idx: i})
			case 'p':
				pop(i, false)
			case 'd':
				q.AdvanceTo(q.Now() + op.delay)
				ref.now += op.delay
				for pop(i, true) {
				}
			case 'r':
				q.Reset()
				ref = refQueue{}
			}
			if q.Len() != len(ref.pending) {
				t.Errorf("op %d: queue holds %d events, reference %d", i, q.Len(), len(ref.pending))
				return false
			}
			at, ok := q.PeekTime()
			if want, wantOK := ref.front(); ok != wantOK || at != want.at {
				t.Errorf("op %d: PeekTime (%d, %v); want (%d, %v)", i, at, ok, want.at, wantOK)
				return false
			}
		}
		for i := 0; q.Len() > 0; i++ {
			if !pop(-1-i, false) {
				return false
			}
		}
		return !pop(-1, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// quick.Check's slices are short; long streams build deep queues.
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		words := make([]uint32, 20_000)
		for i := range words {
			words[i] = r.Uint32()
		}
		if !f(words) {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestFIFOAcrossMixedSchedules pins the tie-break contract the node
// simulator depends on: equal-time events pop in schedule order even
// when interleaved with earlier and later events.
func TestFIFOAcrossMixedSchedules(t *testing.T) {
	var q Queue[int]
	q.Schedule(50, 100)
	for i := 0; i < 5; i++ {
		q.Schedule(20, i)
	}
	q.Schedule(10, 200)
	if p, _ := q.PopNext(); p != 200 {
		t.Fatal("earliest event did not pop first")
	}
	for i := 0; i < 5; i++ {
		if p, _ := q.PopNext(); p != i {
			t.Fatalf("equal-time pop %d out of FIFO order", i)
		}
	}
	if p, _ := q.PopNext(); p != 100 {
		t.Fatal("latest event did not pop last")
	}
}

// TestScheduleAllocFree is the allocation-regression gate for the
// event queue: once the event slice has grown to its working size,
// a schedule/pop cycle must not allocate (the per-fault hot path of
// every node simulation).
func TestScheduleAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	var q Queue[*int]
	payload := new(int)
	// Warm the event slice to its working capacity.
	for i := 0; i < 64; i++ {
		q.Schedule(int64(i), payload)
	}
	for q.Len() > 0 {
		q.PopNext()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(q.Now()+10, payload)
		q.Schedule(q.Now()+5, payload)
		if _, ok := q.PopNext(); !ok {
			t.Fatal("lost event")
		}
		if _, ok := q.PopNext(); !ok {
			t.Fatal("lost event")
		}
	})
	if allocs != 0 {
		t.Errorf("schedule/pop cycle allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkSchedulePop(b *testing.B) {
	var q Queue[*int]
	payload := new(int)
	for i := 0; i < 32; i++ {
		q.Schedule(int64(i), payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+64, payload)
		if _, ok := q.PopNext(); !ok {
			b.Fatal("lost event")
		}
	}
}
