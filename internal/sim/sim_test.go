package sim

import (
	"testing"
	"testing/quick"

	"regreloc/internal/testutil"
)

func TestClockAdvance(t *testing.T) {
	var q Queue[string]
	if q.Now() != 0 {
		t.Fatal("clock not at 0")
	}
	q.Advance(10)
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
	q.Advance(-1)
}

func TestAdvancePastPendingEventPanics(t *testing.T) {
	var q Queue[string]
	q.Schedule(10, "x")
	q.Advance(10) // exactly onto the due time is allowed...
	if p, ok := q.PopDue(); !ok || p != "x" {
		t.Fatal("event not due after advancing onto its time")
	}
	q.Schedule(15, "y")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic advancing past a pending event")
		}
	}()
	q.Advance(6) // ...but overrunning the pending event is not
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
	q.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.AdvanceTo(5)
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue[int]
	q.Advance(10)
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
	q.Advance(10)
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
	q.Advance(100)
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

func TestHeapOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue[int]
		for _, at := range times {
			q.Schedule(int64(at), 0)
		}
		last := int64(-1)
		for q.Len() > 0 {
			at, _ := q.PeekTime()
			if _, ok := q.PopNext(); !ok || at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
// event queue: once the heap slice has grown to its working size,
// a schedule/pop cycle must not allocate (the per-fault hot path of
// every node simulation).
func TestScheduleAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	var q Queue[*int]
	payload := new(int)
	// Warm the heap slice to its working capacity.
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
