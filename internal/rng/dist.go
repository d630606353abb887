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

// Sampler draws from a Dist with its per-distribution constants
// computed once: for a Geometric, the ln(1-1/R) that Source.Geometric
// otherwise recomputes on every draw. It returns exactly the values of
// its Dist's Sample, from the same random draws, so a hot loop (the
// node simulator samples a run length per context switch) can use one
// without changing a single result. Build one with NewSampler.
type Sampler struct {
	dist Dist
	// geo is set for a Geometric with mean above 1, which Sample then
	// draws directly with geoLogQ = ln(1-1/geoMean).
	geo              bool
	geoMean, geoLogQ float64
}

// NewSampler returns a Sampler for d.
func NewSampler(d Dist) Sampler {
	s := Sampler{dist: d}
	if g, ok := d.(Geometric); ok && g.MeanValue > 1 {
		s.geo, s.geoMean, s.geoLogQ = true, g.MeanValue, math.Log(1-1/g.MeanValue)
	}
	return s
}

// Sample draws one value using src, as the Dist's Sample would.
func (s *Sampler) Sample(src *Source) int {
	if s.geo {
		return src.geometric(s.geoMean, s.geoLogQ)
	}
	return s.dist.Sample(src)
}

// Exponential is an exponential distribution with the given mean,
// rounded up to at least 1 cycle. It models producer-consumer
// synchronization wait times (paper Section 3.3).
type Exponential struct{ MeanValue float64 }

// Sample implements Dist.
func (e Exponential) Sample(src *Source) int {
	v := src.Exponential(e.MeanValue)
	if v < 1 {
		return 1
	}
	return int(v + 0.5)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanValue }

func (e Exponential) String() string { return fmt.Sprintf("exponential(%g)", e.MeanValue) }

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
