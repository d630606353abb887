package sched

import (
	"slices"
	"testing"

	"regreloc/internal/thread"
)

func mkThreads(n int) []*thread.Thread {
	out := make([]*thread.Thread, n)
	for i := range out {
		out[i] = thread.New(i, 8, 100)
		out[i].State = thread.ReadyResident
	}
	return out
}

// popHead pops q's head through PopFit, with a fit that takes any
// thread.
func popHead(q *FIFO) *thread.Thread {
	bound := 0
	return q.PopFit(&bound, func(*thread.Thread) bool { return true })
}

func TestRingAddAdvance(t *testing.T) {
	r := NewRing()
	// Every thread is ready-resident, so NextRunnable moves one step.
	advance := func() *thread.Thread { th, _ := r.NextRunnable(); return th }
	if r.Current() != nil || advance() != nil || r.Len() != 0 {
		t.Fatal("empty ring misbehaves")
	}
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	// Ring order: starting at current, a full rotation hits all three
	// exactly once.
	seen := map[int]bool{r.Current().ID: true}
	for i := 0; i < 2; i++ {
		seen[advance().ID] = true
	}
	if len(seen) != 3 {
		t.Errorf("rotation visited %d distinct threads", len(seen))
	}
	// Fourth advance wraps to the starting thread.
	start := advance()
	if !seen[start.ID] {
		t.Error("wrap-around broken")
	}
}

func TestRingRemove(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	cur := r.Current()
	r.Remove(cur)
	if r.Len() != 2 || r.Contains(cur) {
		t.Fatal("remove failed")
	}
	// Current moved to the next node.
	if r.Current() == cur {
		t.Error("current still points at removed node")
	}
	r.Remove(r.Current())
	r.Remove(r.Current())
	if r.Len() != 0 || r.Current() != nil {
		t.Error("ring not empty after removing all")
	}
}

func TestRingDuplicateAddPanics(t *testing.T) {
	r := NewRing()
	th := mkThreads(1)[0]
	r.Add(th)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate add did not panic")
		}
	}()
	r.Add(th)
}

func TestRingRemoveMissingPanics(t *testing.T) {
	r := NewRing()
	defer func() {
		if recover() == nil {
			t.Fatal("remove of absent thread did not panic")
		}
	}()
	r.Remove(mkThreads(1)[0])
}

func TestNextRunnableSkipsBlocked(t *testing.T) {
	r := NewRing()
	ths := mkThreads(4)
	for _, th := range ths {
		r.Add(th)
	}
	// Block everyone except one.
	cur := r.Current()
	var target *thread.Thread
	for _, th := range ths {
		if th != cur {
			th.State = thread.BlockedResident
		}
	}
	cur.State = thread.BlockedResident
	target = ths[2]
	target.State = thread.ReadyResident

	got, steps := r.NextRunnable()
	if got != target {
		t.Fatalf("NextRunnable = thread %v", got)
	}
	if steps < 1 || steps > 4 {
		t.Errorf("steps = %d", steps)
	}
	// Pointer now rests on the runnable thread.
	if r.Current() != target {
		t.Error("pointer not left on runnable thread")
	}
}

func TestNextRunnableAllBlocked(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		th.State = thread.BlockedResident
		r.Add(th)
	}
	got, steps := r.NextRunnable()
	if got != nil || steps != 3 {
		t.Errorf("NextRunnable = %v, %d", got, steps)
	}
}

func TestNextRunnableEmptyRing(t *testing.T) {
	r := NewRing()
	if got, steps := r.NextRunnable(); got != nil || steps != 0 {
		t.Errorf("empty ring NextRunnable = %v, %d", got, steps)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Repeatedly advancing and "running" threads visits everyone
	// equally: the core scheduling property of the NextRRM ring.
	r := NewRing()
	ths := mkThreads(5)
	for _, th := range ths {
		r.Add(th)
	}
	counts := make(map[int]int)
	for i := 0; i < 5*100; i++ {
		th, _ := r.NextRunnable()
		counts[th.ID]++
	}
	for id, c := range counts {
		if c != 100 {
			t.Errorf("thread %d scheduled %d times, want 100", id, c)
		}
	}
}

func TestThreadsSnapshot(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	var snap []*thread.Thread
	r.Each(func(th *thread.Thread) bool {
		snap = append(snap, th)
		return true
	})
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if snap[0] != r.Current() {
		t.Error("snapshot does not start at current")
	}
}

func TestFIFO(t *testing.T) {
	var q FIFO
	if popHead(&q) != nil || q.Len() != 0 {
		t.Fatal("empty FIFO misbehaves")
	}
	ths := mkThreads(3)
	for _, th := range ths {
		q.Push(th)
	}
	for i := 0; i < 3; i++ {
		if got := popHead(&q); got != ths[i] {
			t.Fatalf("pop %d = thread %v", i, got.ID)
		}
	}
	if q.Len() != 0 {
		t.Error("not empty after draining")
	}
}

// TestFIFOPopFitBound pins first-fit admission's bound: fit is asked
// only about threads needing fewer registers than the bound, every
// rejection lowers the bound, and a bound at MinRegs ends the scan.
func TestFIFOPopFitBound(t *testing.T) {
	var q FIFO
	for i, regs := range []int{16, 24, 8, 16, 12} {
		q.Push(thread.New(i, regs, 100))
	}
	var asked []int
	fitUnder := func(free int) func(*thread.Thread) bool {
		return func(th *thread.Thread) bool {
			asked = append(asked, th.ID)
			return th.Regs <= free
		}
	}
	bound := 0
	check := func(got *thread.Thread, wantID, wantBound int, wantAsked ...int) {
		t.Helper()
		if (got == nil) != (wantID < 0) || got != nil && got.ID != wantID {
			t.Fatalf("PopFit returned %v, want thread %d", got, wantID)
		}
		if bound != wantBound {
			t.Fatalf("bound = %d, want %d", bound, wantBound)
		}
		if !slices.Equal(asked, wantAsked) {
			t.Fatalf("fit asked about %v, want %v", asked, wantAsked)
		}
		asked = nil
	}

	// 16 fails, so 24 is skipped; 8 fits.
	got := q.PopFit(&bound, fitUnder(10))
	check(got, 2, 16, 0, 2)
	// Queue 16, 24, 16, 12: everything but 12 is at the bound, and 12
	// failing brings the bound to MinRegs.
	got = q.PopFit(&bound, fitUnder(10))
	check(got, -1, 12, 4)
	// A bound at MinRegs asks nothing.
	got = q.PopFit(&bound, fitUnder(100))
	check(got, -1, 12)
	// A reset bound scans from the head again.
	bound = 0
	got = q.PopFit(&bound, fitUnder(16))
	check(got, 0, 0, 0)
	if q.Len() != 3 || q.MinRegs() != 12 {
		t.Fatalf("queue len %d, MinRegs %d; want 3, 12", q.Len(), q.MinRegs())
	}
}
