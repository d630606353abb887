package sched

import (
	"testing"

	"regreloc/internal/thread"
)

func BenchmarkRingNextRunnable(b *testing.B) {
	r := NewRing()
	ths := mkThreads(8)
	for i, th := range ths {
		if i%2 == 1 {
			th.State = thread.BlockedResident
		}
		r.Add(th)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t, _ := r.NextRunnable(); t == nil {
			b.Fatal("lost runnables")
		}
	}
}

func BenchmarkRingAddRemove(b *testing.B) {
	r := NewRing()
	th := mkThreads(1)[0]
	for i := 0; i < b.N; i++ {
		r.Add(th)
		r.Remove(th)
	}
}

func BenchmarkFIFO(b *testing.B) {
	var q FIFO
	th := mkThreads(1)[0]
	for i := 0; i < b.N; i++ {
		q.Push(th)
		popHead(&q)
	}
}
