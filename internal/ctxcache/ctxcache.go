// Package ctxcache implements the Named State Processor's context
// cache (Nuth & Dally), the alternative design the paper compares
// against in Section 4: instead of partitioning the register file into
// contexts, a fully associative register file binds individual
// variable names (thread, register) to physical registers and "spills
// registers only when they are immediately needed for another
// purpose". The paper positions register relocation between
// conventional contexts and this design: "a binding of variable names
// to contexts that is finer than conventional multithreaded
// processors, but coarser than the context cache approach".
//
// The model here supports the quantitative half of that comparison:
// counting register traffic (spills/fills) under thread switching for
// the three binding granularities.
package ctxcache

import "fmt"

// name identifies a thread-local register.
type name struct {
	thread int
	reg    int
}

// Cache is a fully associative register file with LRU spilling: every
// physical register can hold any (thread, register) binding.
type Cache struct {
	size  int
	where map[name]int // binding -> physical register
	names []name       // physical register -> binding
	valid []bool
	lru   []uint64
	clock uint64

	spills, fills, hits int64
}

// New returns a context cache of size physical registers.
func New(size int) *Cache {
	if size < 1 {
		panic(fmt.Sprintf("ctxcache: invalid size %d", size))
	}
	return &Cache{
		size:  size,
		where: make(map[name]int),
		names: make([]name, size),
		valid: make([]bool, size),
		lru:   make([]uint64, size),
	}
}

// Touch accesses (thread, reg): a hit if the binding is resident, else
// a fill (and a spill if a dirty victim must make room — this model
// counts every eviction as a spill, the conservative write-back
// assumption). Returns the physical register.
func (c *Cache) Touch(thread, reg int) int {
	c.clock++
	n := name{thread, reg}
	if p, ok := c.where[n]; ok {
		c.hits++
		c.lru[p] = c.clock
		return p
	}
	c.fills++
	// Pick a victim: first invalid, else LRU.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for p := 0; p < c.size; p++ {
		if !c.valid[p] {
			victim = p
			break
		}
		if c.lru[p] < oldest {
			oldest = c.lru[p]
			victim = p
		}
	}
	if c.valid[victim] {
		c.spills++
		delete(c.where, c.names[victim])
	}
	c.names[victim] = n
	c.valid[victim] = true
	c.lru[victim] = c.clock
	c.where[n] = victim
	return victim
}

// Stats returns (hits, fills, spills).
func (c *Cache) Stats() (hits, fills, spills int64) { return c.hits, c.fills, c.spills }

// Traffic compares register save/restore traffic across the three
// binding granularities for a round-robin schedule over threads with
// the given per-thread register working sets, in a file of fileSize
// registers. Each thread "runs" rounds times, touching each of its
// registers once per run.
//
//   - ContextCache: per-register binding; traffic = fills + spills
//     measured on the associative cache.
//   - RegReloc: per-context binding; a thread evicted to admit another
//     costs unload+reload of exactly its C registers (the paper's
//     Section 2.5 rule); threads resident together cost nothing after
//     the first load. Capacity = how many power-of-two contexts fit.
//   - Fixed: per-context binding with 32-register slots, save/restore
//     of C registers (the paper's conservative baseline).
type Traffic struct {
	ContextCache int64
	RegReloc     int64
	Fixed        int64
}

// CompareTraffic runs the schedule and returns the traffic totals.
func CompareTraffic(fileSize int, workingSets []int, rounds int) Traffic {
	if rounds < 1 || len(workingSets) == 0 {
		panic("ctxcache: invalid comparison")
	}
	var out Traffic

	// Context cache: just touch registers round-robin.
	cc := New(fileSize)
	for r := 0; r < rounds; r++ {
		for t, ws := range workingSets {
			for reg := 0; reg < ws; reg++ {
				cc.Touch(t, reg)
			}
		}
	}
	_, fills, spills := cc.Stats()
	out.ContextCache = fills + spills

	// Whole-context schemes: simulate residency with LRU over contexts.
	contextTraffic := func(slotOf func(ws int) int) int64 {
		type slot struct {
			thread int
			lru    int
		}
		var resident []slot
		used := 0
		clock := 0
		var traffic int64
		for r := 0; r < rounds; r++ {
			for t, ws := range workingSets {
				clock++
				found := false
				for i := range resident {
					if resident[i].thread == t {
						resident[i].lru = clock
						found = true
						break
					}
				}
				if found {
					continue
				}
				need := slotOf(ws)
				// Evict LRU contexts until the thread fits.
				for used+need > fileSize && len(resident) > 0 {
					v := 0
					for i := range resident {
						if resident[i].lru < resident[v].lru {
							v = i
						}
					}
					victimWS := workingSets[resident[v].thread]
					traffic += int64(victimWS) // unload C registers
					used -= slotOf(victimWS)
					resident = append(resident[:v], resident[v+1:]...)
				}
				traffic += int64(ws) // load C registers
				resident = append(resident, slot{t, clock})
				used += need
			}
		}
		return traffic
	}

	out.RegReloc = contextTraffic(func(ws int) int {
		size := 4
		for size < ws {
			size *= 2
		}
		return size
	})
	out.Fixed = contextTraffic(func(int) int { return 32 })
	return out
}
