// Package cache implements the Section 5.2 substrate: a set-
// associative processor cache shared by all resident thread contexts,
// synthetic per-thread reference streams, and the machinery to study
// how cache interference limits the useful number of resident
// contexts. The paper observes that "threads sharing a common cache
// can interfere with each other" (most interference being
// destructive, citing Weber & Gupta), that fine-grained threads'
// working sets tend to shrink with parallelism (Agarwal), and lists
// adaptively limiting the number of resident contexts as future work
// — implemented here as the Adaptive controller.
package cache

import (
	"fmt"
	"math/bits"

	"regreloc/internal/rng"
)

// Cache is a set-associative cache with LRU replacement. Addresses are
// word addresses; a line holds LineWords words.
type Cache struct {
	sets int
	ways int
	// Every size is a power of two, so a word address splits into line,
	// set and tag by shifts and a mask instead of three divisions.
	lineShift, setShift uint
	setMask             uint64

	// tags[set*ways+way] holds the line tag; lru[set*ways+way] the
	// last-use stamp.
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64

	hits, misses int64
}

// New returns a cache of totalWords capacity with the given
// associativity and line size (all powers of two).
func New(totalWords, ways, lineWords int) *Cache {
	if totalWords <= 0 || ways <= 0 || lineWords <= 0 {
		panic("cache: sizes must be positive")
	}
	for _, v := range []int{totalWords, ways, lineWords} {
		if v&(v-1) != 0 {
			panic(fmt.Sprintf("cache: %d is not a power of two", v))
		}
	}
	lines := totalWords / lineWords
	if lines < ways {
		panic("cache: fewer lines than ways")
	}
	sets := lines / ways
	c := &Cache{
		sets: sets, ways: ways,
		lineShift: uint(bits.TrailingZeros(uint(lineWords))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		lru:       make([]uint64, lines),
	}
	return c
}

// index splits a word address into its set and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> c.setShift
}

// Access touches the word address and returns true on a hit. Misses
// fill the line, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	set, tag := c.index(addr)
	base := set * c.ways

	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.lru[base+w] = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	// Fill: first invalid way, else LRU.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lru[base+w] < oldest {
			oldest = c.lru[base+w]
			victim = base + w
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.clock
	return false
}

// Stats returns (hits, misses) since the last Reset.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// ResetStats zeroes the counters without flushing the contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush invalidates every line and zeroes the counters.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.ResetStats()
	c.clock = 0
}

// RefStream generates a thread's synthetic memory references: a
// fraction Locality of accesses fall (with reuse) inside the thread's
// working set; the rest scatter over a large shared region, modeling
// cold/shared data.
type RefStream struct {
	// Base is the first word of the thread's private working set.
	Base uint64
	// WorkingSet is the working set size in words.
	WorkingSet int
	// Locality is the probability an access hits the working set.
	Locality float64
	// SharedWords is the size of the shared scatter region.
	SharedWords int

	src *rng.Source
}

// NewRefStream returns a reference stream for one thread.
func NewRefStream(base uint64, workingSet int, locality float64, sharedWords int, src *rng.Source) *RefStream {
	if workingSet <= 0 || sharedWords <= 0 || locality < 0 || locality > 1 {
		panic("cache: invalid reference stream")
	}
	return &RefStream{Base: base, WorkingSet: workingSet, Locality: locality, SharedWords: sharedWords, src: src}
}

// sharedBase keeps the shared region disjoint from any working set.
const sharedBase = 1 << 40

// Next returns the next word address.
func (s *RefStream) Next() uint64 {
	if s.src.Float64() < s.Locality {
		return s.Base + uint64(s.src.Intn(s.WorkingSet))
	}
	return sharedBase + uint64(s.src.Intn(s.SharedWords))
}
