package rng

import (
	"math"
	"math/bits"
	"sync"
)

// A guide table answers an integer-valued inverse-transform draw
// without evaluating its logarithm: the "indexed search" of Chen &
// Asau (1974), as in Devroye, Non-Uniform Random Variate Generation
// (1986), Section III.2.4.
//
// Geometric and Exponential draws are step functions of the 53-bit
// integer m = Uint64()>>11 behind Float64: the formula takes the log of
// u = 1 - m/2^53, scales it to a real x that grows with m, and maps x
// to an integer with a monotone output function (Geometric's
// ceil-and-clamp, Exponential.Sample's floor-at-1-then-round). The
// table splits m's range into 2^b equal buckets by m's top b bits. A
// bucket stores an answer only when the output function gives the same
// integer at both of its edges after each edge's x is widened by the
// relative margin guideMargin. The margin sits far above the few-ulp
// error of math.Log and the division or product that follows it, so
// every draw inside the bucket, whose exact x lies between the edges',
// provably gets that integer from the formula too. Every other bucket
// stores 0, and its draws evaluate the formula on the same m. Either
// way a draw consumes exactly one Uint64 and returns the formula's
// value, which TestGuideBucketEdges checks at every bucket edge.

// guideMargin is the relative widening applied to a bucket edge's x.
// math.Log is accurate to under 1 ulp and the scaling adds half an
// ulp, so the computed x is within about 2^-51 of the exact one; the
// margin leaves a factor of 2^15 to spare.
const guideMargin = 0x1p-36

// maxGuides bounds the table memo. rrserved accepts any R and L in
// [1, 2^20], so the memo must not grow with traffic: once it holds
// maxGuides tables, a new Sampler gets noGuide and draws every value
// from the formula. A full-scale pass over every experiment needs 12
// tables, about 0.75 MB.
const maxGuides = 64

// guide is a built table. answer[m>>shift] is the value of every draw m
// in that bucket, or 0 when the formula must decide.
type guide struct {
	shift  uint
	answer []uint16
}

// noGuide answers nothing: m>>53 is 0 for every 53-bit m, and entry 0
// is 0, so every draw falls through to the formula.
var noGuide = guide{shift: 53, answer: make([]uint16, 1)}

// lookup returns the table's answer for m, or 0.
func (g guide) lookup(m uint64) int { return int(g.answer[m>>g.shift]) }

// guideBits is the table size for a distribution with the given mean:
// ceil(log2 mean)+8 bits, clamped to [8, 16]. Near u = 1 a bucket then
// spans about 1/256 of an integer step of x, so 92-98% of draws are
// answered from the table for means 8 to 1024.
func guideBits(mean float64) uint {
	b := math.Ceil(math.Log2(mean)) + 8
	switch {
	case !(b >= 8): // also catches NaN
		return 8
	case b > 16:
		return 16
	}
	return uint(b)
}

// buildGuide builds the table in answer, one bucket per entry (a power
// of two of them), for a draw whose real value is x(m), non-negative
// and non-decreasing in m, and whose answer is out(x). It returns
// noGuide when no bucket can answer, which is also what a degenerate
// mean gets: one whose first bucket's x is NaN (a geometric mean so
// large that ln(1-1/mean) rounds to 0, or an infinite exponential one)
// or spans a whole step.
func buildGuide(answer []uint16, x func(m uint64) float64, out func(x float64) int) guide {
	shift := 53 - uint(bits.TrailingZeros(uint(len(answer))))
	clear(answer)
	hits := 0
	for j := range answer {
		lo := x(uint64(j) << shift)
		hi := x((uint64(j)+1)<<shift - 1)
		a, b := lo*(1-guideMargin), hi*(1+guideMargin)
		if !(b-a < 1) {
			// x is convex in m, so every later bucket is at least as
			// wide and must straddle a step too. NaN stops here too.
			break
		}
		k := out(a)
		if k < 1 || k >= 1<<16 {
			// Answers must fit a nonzero uint16, and they only grow
			// from here.
			break
		}
		if out(b) == k {
			answer[j] = uint16(k)
			hits++
		}
	}
	if hits == 0 {
		return noGuide
	}
	return guide{shift: shift, answer: answer}
}

// geometricGuide is the table for Source.Geometric with the given mean
// (> 1) and logQ = ln(1-1/mean).
func geometricGuide(mean, logQ float64) guide {
	return buildGuide(make([]uint16, 1<<guideBits(mean)),
		func(m uint64) float64 { return math.Log(unit(m)) / logQ },
		func(x float64) int { return runLength(x, mean) })
}

// exponentialGuide is the table for Exponential.Sample with the given
// mean (> 0).
func exponentialGuide(mean float64) guide {
	return buildGuide(make([]uint16, 1<<guideBits(mean)),
		func(m uint64) float64 { return exponentialAt(m, mean) },
		latency)
}

// GapTable draws the whole-cycle gaps of a Poisson process,
// 1 + int64(Source.Exponential(mean)), the issue gaps of the network
// simulator, from a guide table over the floor output function gap.
// Like a Sampler, it returns exactly the formula's value and consumes
// one Uint64 per draw.
//
// Unlike a Sampler's tables, a GapTable is built for one use and never
// enters the shared memo: the network's fixed point draws at a new
// continuous mean every round, which would fill the memo's slots that
// the node simulator's samplers rely on. Build reuses the table's
// storage, so a pooled GapTable rebuilds without allocating.
type GapTable struct {
	mean  float64
	guide guide
	buf   []uint16 // the table's storage, kept across Builds
}

// Build readies the table for gaps of the given mean (> 0), expecting
// about draws of them. Building a bucket costs two formula evaluations
// and a draw the table cannot answer costs one, so the table is sized
// as guideBits does but with at most a quarter as many buckets as
// draws. It is not built at all when that leaves fewer than 16·mean
// buckets (⌈log2 mean⌉+4 bits): a coarser table answers under about
// three quarters of the draws and would not pay for itself.
func (g *GapTable) Build(mean, draws float64) {
	g.mean, g.guide = mean, noGuide
	b := min(float64(guideBits(mean)), math.Floor(math.Log2(draws/4)))
	if !(b >= max(8, math.Ceil(math.Log2(mean))+4)) { // also catches NaN
		return
	}
	n := 1 << uint(b)
	if cap(g.buf) < n {
		g.buf = make([]uint16, n)
	}
	g.guide = buildGuide(g.buf[:n],
		func(m uint64) float64 { return exponentialAt(m, mean) },
		gap)
}

// Draw returns 1 + int64(src.Exponential(mean)) for the table's mean.
func (g *GapTable) Draw(src *Source) int64 { return g.at(src.Uint64() >> 11) }

// at is Draw's value for the 53-bit draw m: the table's answer, or
// else the formula's.
func (g *GapTable) at(m uint64) int64 {
	if k := g.guide.lookup(m); k != 0 {
		return int64(k)
	}
	return int64(exponentialAt(m, g.mean)) + 1
}

// gap is GapTable's output function: the whole cycles in an
// exponential draw v, plus one. It is non-decreasing in v and at least
// 1, as the guide tables require.
func gap(v float64) int { return int(v) + 1 }

// guideKey names a memoized table: the leaf kind whose formula it
// answers for (leafGeometric or leafExponential) and the mean.
type guideKey struct {
	kind leafKind
	mean float64
}

// guideMemo shares built tables across Samplers: the node simulator
// builds a Sampler per run, and a sweep runs the same few means
// thousands of times. It holds at most limit tables.
type guideMemo struct {
	mu     sync.Mutex
	limit  int
	tables map[guideKey]guide
}

func newGuideMemo(limit int) *guideMemo {
	return &guideMemo{limit: limit, tables: make(map[guideKey]guide)}
}

// guides is the process-wide memo behind NewSampler.
var guides = newGuideMemo(maxGuides)

// get returns the memoized table for k, building it with build on a
// miss, or noGuide once the memo is full. The build runs outside the
// lock; when two goroutines race on one key, the first stored wins.
func (g *guideMemo) get(k guideKey, build func() guide) guide {
	g.mu.Lock()
	t, ok := g.tables[k]
	full := len(g.tables) >= g.limit
	g.mu.Unlock()
	if ok {
		return t
	}
	if full {
		return noGuide
	}
	t = build()
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.tables[k]; ok {
		return prev
	}
	if len(g.tables) >= g.limit {
		return noGuide
	}
	g.tables[k] = t
	return t
}
