package rng

import (
	"fmt"
	"math"
)

// Dist is a distribution of non-negative integer cycle counts or
// register counts, sampled with an explicit Source. The experiment
// harness composes workloads from these (paper Section 3.1: geometric
// run lengths, constant cache latencies, exponential synchronization
// latencies, uniform context sizes).
type Dist interface {
	// Sample draws one value using src.
	Sample(src *Source) int
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution, e.g. "geometric(32)".
	String() string
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct{ Value int }

// Sample implements Dist.
func (c Constant) Sample(*Source) int { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return float64(c.Value) }

func (c Constant) String() string { return fmt.Sprintf("constant(%d)", c.Value) }

// Geometric is a geometric distribution with the given mean and support
// {1, 2, ...}. It models a fixed per-cycle fault probability.
type Geometric struct{ MeanValue float64 }

// Sample implements Dist.
func (g Geometric) Sample(src *Source) int { return src.Geometric(g.MeanValue) }

// Mean implements Dist.
func (g Geometric) Mean() float64 { return g.MeanValue }

func (g Geometric) String() string { return fmt.Sprintf("geometric(%g)", g.MeanValue) }

// Sampler draws from a Dist with its per-distribution work done once.
// It returns exactly the values of its Dist's Sample, from the same
// random draws, so a hot loop (the node simulator draws a run length
// and a latency per simulated fault) can use one without changing a
// single result:
//
//   - a Geometric or Exponential draw is answered from a memoized guide
//     table wherever the table can prove the formula's answer, and from
//     the formula on the same 53-bit draw everywhere else (guide.go);
//     a Geometric's ln(1-1/R) is computed once;
//   - a Constant is returned without interface dispatch;
//   - a Mixture draws its branch as Mixture.Sample does, then draws the
//     branch through a Sampler of its own.
//
// Any other Dist is sampled through its interface. Build one with
// NewSampler.
type Sampler struct {
	// mix is set for a Mixture: a draw below p picks a, else b. Every
	// other Dist draws from a alone.
	mix  bool
	p    float64
	a, b leaf
}

// NewSampler returns a Sampler for d.
func NewSampler(d Dist) Sampler { return newSampler(d, guides) }

func newSampler(d Dist, memo *guideMemo) Sampler {
	if m, ok := d.(Mixture); ok {
		return Sampler{mix: true, p: m.P, a: newLeaf(m.A, memo), b: newLeaf(m.B, memo)}
	}
	return Sampler{a: newLeaf(d, memo)}
}

// Sample draws one value using src, as the Dist's Sample would.
func (s *Sampler) Sample(src *Source) int {
	if s.mix && !(src.Float64() < s.p) {
		return s.b.sample(src)
	}
	return s.a.sample(src)
}

type leafKind uint8

const (
	leafDist leafKind = iota // the Dist's own Sample
	leafConstant
	leafGeometric
	leafExponential
)

// leaf samples one distribution that is not a Mixture.
type leaf struct {
	kind  leafKind
	value int     // leafConstant
	mean  float64 // leafGeometric, leafExponential
	logQ  float64 // leafGeometric: ln(1-1/mean)
	guide guide   // leafGeometric, leafExponential
	dist  Dist    // leafDist
}

func newLeaf(d Dist, memo *guideMemo) leaf {
	switch d := d.(type) {
	case Constant:
		return leaf{kind: leafConstant, value: d.Value}
	case Geometric:
		mean := d.MeanValue
		if mean == 1 {
			// Source.Geometric(1) returns 1 without drawing.
			return leaf{kind: leafConstant, value: 1}
		}
		if mean > 1 {
			logQ := math.Log(1 - 1/mean)
			return leaf{kind: leafGeometric, mean: mean, logQ: logQ,
				guide: memo.get(guideKey{leafGeometric, mean}, func() guide { return geometricGuide(mean, logQ) })}
		}
	case Exponential:
		if mean := d.MeanValue; mean > 0 {
			return leaf{kind: leafExponential, mean: mean,
				guide: memo.get(guideKey{leafExponential, mean}, func() guide { return exponentialGuide(mean) })}
		}
	}
	return leaf{kind: leafDist, dist: d}
}

func (l *leaf) sample(src *Source) int {
	switch l.kind {
	case leafConstant:
		return l.value
	case leafGeometric, leafExponential:
		return l.at(src.Uint64() >> 11)
	}
	return l.dist.Sample(src)
}

// at is a Geometric or Exponential leaf's value for the 53-bit draw m:
// the table's answer, or else the formula's.
func (l *leaf) at(m uint64) int {
	if k := l.guide.lookup(m); k != 0 {
		return k
	}
	if l.kind == leafGeometric {
		return geometricAt(m, l.mean, l.logQ)
	}
	return latency(exponentialAt(m, l.mean))
}

// Exponential is an exponential distribution with the given mean,
// rounded up to at least 1 cycle. It models producer-consumer
// synchronization wait times (paper Section 3.3).
type Exponential struct{ MeanValue float64 }

// Sample implements Dist.
func (e Exponential) Sample(src *Source) int { return latency(src.Exponential(e.MeanValue)) }

// latency rounds an exponential draw v to a whole number of cycles, at
// least 1. It is non-decreasing in v, which the guide tables rely on.
func latency(v float64) int {
	if v < 1 {
		return 1
	}
	return int(v + 0.5)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanValue }

func (e Exponential) String() string { return fmt.Sprintf("exponential(%g)", e.MeanValue) }

// Mixture samples from A with probability P, else from B. The node
// simulator's combined workload uses one for its latencies: a constant
// cache-fault latency mixed with an exponential synchronization one.
type Mixture struct {
	P    float64
	A, B Dist
}

// Sample implements Dist.
func (m Mixture) Sample(src *Source) int {
	if src.Float64() < m.P {
		return m.A.Sample(src)
	}
	return m.B.Sample(src)
}

// Mean implements Dist.
func (m Mixture) Mean() float64 {
	return m.P*m.A.Mean() + (1-m.P)*m.B.Mean()
}

func (m Mixture) String() string {
	return fmt.Sprintf("mix(%.2f:%s, %s)", m.P, m.A, m.B)
}

// Weighted is a discrete distribution over explicit values with
// relative weights — used for bimodal context-size populations such as
// the paper's motivating "mix of both coarse and fine-grained threads"
// (Section 2).
type Weighted struct {
	Values  []int
	Weights []float64
}

// NewWeighted validates and returns a weighted distribution.
func NewWeighted(values []int, weights []float64) Weighted {
	if len(values) == 0 || len(values) != len(weights) {
		panic("rng: weighted distribution needs matching non-empty values and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: weights sum to zero")
	}
	return Weighted{Values: values, Weights: weights}
}

// Sample implements Dist.
func (w Weighted) Sample(src *Source) int {
	total := 0.0
	for _, wt := range w.Weights {
		total += wt
	}
	x := src.Float64() * total
	for i, wt := range w.Weights {
		x -= wt
		if x < 0 {
			return w.Values[i]
		}
	}
	return w.Values[len(w.Values)-1]
}

// Mean implements Dist.
func (w Weighted) Mean() float64 {
	total, sum := 0.0, 0.0
	for i, wt := range w.Weights {
		total += wt
		sum += wt * float64(w.Values[i])
	}
	return sum / total
}

func (w Weighted) String() string {
	return fmt.Sprintf("weighted(%v)", w.Values)
}

// UniformInt is a discrete uniform distribution on [Lo, Hi] inclusive.
// The paper draws required context sizes C uniformly from [6, 24].
type UniformInt struct{ Lo, Hi int }

// Sample implements Dist.
func (u UniformInt) Sample(src *Source) int { return src.IntRange(u.Lo, u.Hi) }

// Mean implements Dist.
func (u UniformInt) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

func (u UniformInt) String() string { return fmt.Sprintf("uniform(%d,%d)", u.Lo, u.Hi) }
