package sched

import (
	"testing"

	"regreloc/internal/testutil"
	"regreloc/internal/thread"
)

// The ring and FIFO sit on the node simulator's per-fault hot path;
// these tests pin their steady-state operations at zero allocations so
// a regression (like the Threads() snapshot the spin loop used to
// take, or the ring nodes Add used to heap-allocate) fails loudly.

func TestRingEachAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	r := NewRing()
	for i := 0; i < 16; i++ {
		r.Add(thread.New(i, 8, 100))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		n := 0
		r.Each(func(*thread.Thread) bool {
			n++
			return true
		})
		if n != 16 {
			t.Fatalf("visited %d of 16", n)
		}
	})
	if allocs != 0 {
		t.Errorf("Ring.Each allocated %.1f times per full iteration; want 0", allocs)
	}
}

func TestRingAddRemoveAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	r := NewRing()
	threads := make([]*thread.Thread, 8)
	for i := range threads {
		threads[i] = thread.New(i, 8, 100)
	}
	// Warm the free list: after one add/remove round the ring owns
	// enough recycled nodes for this population.
	for _, th := range threads {
		r.Add(th)
	}
	for _, th := range threads {
		r.Remove(th)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, th := range threads {
			r.Add(th)
		}
		for _, th := range threads {
			r.Remove(th)
		}
	})
	if allocs != 0 {
		t.Errorf("Ring add/remove cycle allocated %.1f times; want 0", allocs)
	}
}

func TestFIFOAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	var q FIFO
	threads := make([]*thread.Thread, 8)
	for i := range threads {
		threads[i] = thread.New(i, 6+i, 100)
	}
	// Warm the items slice to its working capacity.
	for _, th := range threads {
		q.Push(th)
	}
	for q.Len() > 0 {
		popHead(&q)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, th := range threads {
			q.Push(th)
		}
		if q.MinRegs() != 6 {
			t.Fatal("wrong MinRegs")
		}
		for q.Len() > 0 {
			popHead(&q)
		}
	})
	if allocs != 0 {
		t.Errorf("FIFO push/pop cycle allocated %.1f times; want 0", allocs)
	}
}
