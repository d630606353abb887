package rng

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// guideMeans is every mean the guide tables are checked at, as both a
// Geometric and an Exponential mean:
//   - the run-length means a full-scale pass over every experiment
//     samples (8, 16, 25.6, 30.117..., 32, 128, 512) and its
//     exponential latency means (64 to 1024);
//   - the serve-cold benchmark's extra latencies (96, 192, 384, 768);
//   - non-integer latencies network.CoupledRun relaxes through;
//   - the edges 1.5, 2 and 2^20, the largest R or L rrserved accepts.
var guideMeans = []float64{
	1.5, 2, 8, 16, 24.674469264892267, 25.6, 30.11764705882353, 32,
	38.51663957740756, 64, 72.45492415319924, 96, 128, 192, 256, 384,
	512, 768, 1024, 1 << 20,
}

// guideCase is a leaf with a freshly built table and the formula it
// must agree with on every 53-bit draw.
type guideCase struct {
	leaf    leaf
	formula func(m uint64) int
}

// guideCases returns a Geometric and an Exponential case for mean. The
// formulas are the ones Source.Geometric and Exponential.Sample apply
// to their draw.
func guideCases(mean float64) map[string]guideCase {
	logQ := math.Log(1 - 1/mean)
	return map[string]guideCase{
		"geometric": {
			leaf{kind: leafGeometric, mean: mean, logQ: logQ, guide: geometricGuide(mean, logQ)},
			func(m uint64) int { return geometricAt(m, mean, logQ) },
		},
		"exponential": {
			leaf{kind: leafExponential, mean: mean, guide: exponentialGuide(mean)},
			func(m uint64) int { return latency(exponentialAt(m, mean)) },
		},
	}
}

// TestGuideBucketEdges checks the tables where they are most likely to
// be wrong: at every bucket edge of every table, the draws two either
// side of the edge must give the formula's value. A million random
// draws per table must too, and for the means the experiments use, the
// table must answer most of them (else the Sampler is exact but slow).
func TestGuideBucketEdges(t *testing.T) {
	for _, mean := range guideMeans {
		for kind, c := range guideCases(mean) {
			t.Run(fmt.Sprintf("%s(%g)", kind, mean), func(t *testing.T) {
				t.Parallel()
				g := c.leaf.guide
				check := func(m uint64) {
					if got, want := c.leaf.at(m), c.formula(m); got != want {
						t.Fatalf("draw %#x (bucket %d of %d): sampler %d, formula %d",
							m, m>>g.shift, len(g.answer), got, want)
					}
				}
				for j := uint64(0); j <= uint64(len(g.answer)); j++ {
					edge := j << g.shift
					for m := edge - 2; m != edge+3; m++ {
						if m < 1<<53 {
							check(m)
						}
					}
				}
				src := New(uint64(mean * 1000))
				hits := 0
				const draws = 1_000_000
				for i := 0; i < draws; i++ {
					m := src.Uint64() >> 11
					check(m)
					if g.lookup(m) != 0 {
						hits++
					}
				}
				if share := float64(hits) / draws; mean >= 8 && mean <= 1024 && share < 0.85 {
					t.Errorf("table answered %.1f%% of draws; want at least 85%%", 100*share)
				}
			})
		}
	}
}

// TestGuideMemoBound pins the memo's fixed size: past its bound it
// stores nothing more, and the Samplers built after that draw from the
// formula and still match Dist.Sample.
func TestGuideMemoBound(t *testing.T) {
	memo := newGuideMemo(maxGuides)
	extra := 8
	for i := 0; i < maxGuides+extra; i++ {
		mean := 2 + float64(i)/4
		for _, d := range []Dist{Geometric{MeanValue: mean}, Exponential{MeanValue: mean}} {
			s := newSampler(d, memo)
			if n := len(memo.tables); n > maxGuides {
				t.Fatalf("memo holds %d tables; bound is %d", n, maxGuides)
			}
			got, want := New(uint64(i)), New(uint64(i))
			for k := 0; k < 2000; k++ {
				if g, w := s.Sample(got), d.Sample(want); g != w {
					t.Fatalf("%s draw %d: sampler %d, dist %d", d, k, g, w)
				}
			}
		}
	}
	if n := len(memo.tables); n != maxGuides {
		t.Fatalf("memo holds %d tables after %d distinct distributions; want the bound %d",
			n, 2*(maxGuides+extra), maxGuides)
	}
	// A memoized distribution still gets its table.
	if s := newSampler(Geometric{MeanValue: 2}, memo); len(s.a.guide.answer) == 1 {
		t.Error("memoized geometric(2) lost its table")
	}
	if s := newSampler(Geometric{MeanValue: 1000}, memo); len(s.a.guide.answer) != 1 {
		t.Error("a Sampler built past the bound got a table")
	}
}

// TestGuideMemoConcurrent builds Samplers for overlapping means from
// several goroutines at once, as parallel sweep workers do: each must
// still match Dist.Sample, and the memo must end up holding one table
// per distinct distribution.
func TestGuideMemoConcurrent(t *testing.T) {
	memo := newGuideMemo(maxGuides)
	means := []float64{8, 32, 64, 128}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range means {
				mean := means[(i+w)%len(means)]
				for _, d := range []Dist{Geometric{MeanValue: mean}, Exponential{MeanValue: mean}} {
					s := newSampler(d, memo)
					got, want := New(uint64(w)), New(uint64(w))
					for k := 0; k < 1000; k++ {
						if g, w := s.Sample(got), d.Sample(want); g != w {
							t.Errorf("%s draw %d: sampler %d, dist %d", d, k, g, w)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := len(memo.tables); n != 2*len(means) {
		t.Errorf("memo holds %d tables; want %d", n, 2*len(means))
	}
}
