package sched

import (
	"fmt"

	"regreloc/internal/thread"
)

// PriorityRings implements the paper's Section 2.2 observation that
// "separate linked lists of register relocation masks could be
// maintained to implement different thread classes or priorities":
// one NextRRM ring per class, searched from the highest priority
// (class 0) downward. Because scheduling is entirely in software, the
// structure is just data — no hardware change is implied. The rings are
// the only membership record: a thread's class is the ring that holds
// it.
type PriorityRings struct {
	rings []*Ring
}

// NewPriorityRings returns a scheduler with the given number of
// priority classes; class 0 is the highest.
func NewPriorityRings(classes int) *PriorityRings {
	if classes < 1 {
		panic("sched: need at least one priority class")
	}
	p := &PriorityRings{rings: make([]*Ring, classes)}
	for i := range p.rings {
		p.rings[i] = NewRing()
	}
	return p
}

// Classes returns the number of priority classes.
func (p *PriorityRings) Classes() int { return len(p.rings) }

// Len returns the total number of resident contexts across classes.
func (p *PriorityRings) Len() int {
	n := 0
	for _, r := range p.rings {
		n += r.Len()
	}
	return n
}

// Add inserts t into the given class's ring.
func (p *PriorityRings) Add(t *thread.Thread, class int) {
	if class < 0 || class >= len(p.rings) {
		panic(fmt.Sprintf("sched: invalid class %d", class))
	}
	if _, dup := p.ClassOf(t); dup {
		panic(fmt.Sprintf("sched: thread %d already scheduled", t.ID))
	}
	p.rings[class].Add(t)
}

// Remove unlinks t from its ring.
func (p *PriorityRings) Remove(t *thread.Thread) {
	class, ok := p.ClassOf(t)
	if !ok {
		panic(fmt.Sprintf("sched: thread %d not scheduled", t.ID))
	}
	p.rings[class].Remove(t)
}

// ClassOf returns the class t was added with: the ring that holds it.
func (p *PriorityRings) ClassOf(t *thread.Thread) (int, bool) {
	for c, r := range p.rings {
		if r.Contains(t) {
			return c, true
		}
	}
	return 0, false
}

// SetClass moves t to another class (software reprioritization: just a
// relink of NextRRM masks).
func (p *PriorityRings) SetClass(t *thread.Thread, class int) {
	p.Remove(t)
	p.Add(t, class)
}

// NextRunnable returns the next runnable thread from the highest-
// priority non-empty class (round-robin within the class), or nil.
func (p *PriorityRings) NextRunnable() *thread.Thread {
	for _, r := range p.rings {
		if t, _ := r.NextRunnable(); t != nil {
			return t
		}
	}
	return nil
}

// Each visits all resident threads, highest class first, in ring
// order, without allocating, stopping early when fn returns false.
func (p *PriorityRings) Each(fn func(*thread.Thread) bool) {
	for _, r := range p.rings {
		stopped := false
		r.Each(func(t *thread.Thread) bool {
			if !fn(t) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Threads returns all resident threads, highest class first, in ring
// order. It allocates per call; hot paths use Each.
func (p *PriorityRings) Threads() []*thread.Thread {
	out := make([]*thread.Thread, 0, p.Len())
	p.Each(func(t *thread.Thread) bool {
		out = append(out, t)
		return true
	})
	return out
}
