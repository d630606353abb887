package rng

import (
	"fmt"
	"math"
	"math/bits"
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

// gapMeans are the issue-gap means GapTable is checked at: the means
// the scaling experiment's fixed point reaches at both scales and seeds
// 1 and 2 (20 at a saturated processor, then 22.000000000000004, 24,
// 26 and continuous means up to 27.04 as efficiency falls), and
// BenchmarkSimulate's sparse mean 100.
var gapMeans = []float64{
	20, 21.640394921094483, 22.000000000000004, 23.37789226460278, 24,
	25.17965884871366, 26, 27.040374217021434, 100,
}

// guideCase is a freshly built table, the sampler that reads it, the
// formula the sampler must agree with on every 53-bit draw, and the
// least share of random draws the table must answer.
type guideCase struct {
	guide    guide
	at       func(m uint64) int
	formula  func(m uint64) int
	minShare float64
}

// experimentShare is the least share of draws a full-size table must
// answer at a mean the experiments use (8 to 1024).
func experimentShare(mean float64) float64 {
	if mean >= 8 && mean <= 1024 {
		return 0.85
	}
	return 0
}

// sourceAt returns a Source whose next 53-bit draw, Uint64()>>11, is
// m. xoshiro256**'s output rotl(s1·5, 7)·9 depends on s[1] alone, so
// s[1] is that expression inverted at m<<11; the other words only need
// to leave the state nonzero.
func sourceAt(m uint64) *Source {
	const inv9 = 0x8e38e38e38e38e39 // 9·inv9 ≡ 1 mod 2^64
	const inv5 = 0xcccccccccccccccd // 5·inv5 ≡ 1 mod 2^64
	s1 := bits.RotateLeft64((m<<11)*inv9, -7) * inv5
	return &Source{s: [4]uint64{1, s1, 2, 3}}
}

// TestSourceAt pins the inversion the table tests draw through: the
// Source sourceAt builds yields m as its next 53-bit draw, at the edges
// of the range and at random draws.
func TestSourceAt(t *testing.T) {
	src := New(9)
	for i := 0; i < 10_000; i++ {
		m := src.Uint64() >> 11
		if i < 3 {
			m = []uint64{0, 1, 1<<53 - 1}[i]
		}
		if got := sourceAt(m).Uint64() >> 11; got != m {
			t.Fatalf("sourceAt(%#x) drew %#x", m, got)
		}
	}
}

// samplerAt returns s's value for the 53-bit draw m, through Sample
// itself.
func samplerAt(s Sampler) func(m uint64) int {
	return func(m uint64) int { return s.Sample(sourceAt(m)) }
}

// guideCases returns a Geometric and an Exponential case for mean, each
// drawn through a Sampler holding a freshly built table. The formulas
// are the ones Source.Geometric and Exponential.Sample apply to their
// draw.
func guideCases(mean float64) map[string]guideCase {
	logQ := math.Log(1 - 1/mean)
	geo := Sampler{a: leaf{kind: leafGeometric, mean: mean, logQ: logQ, guide: geometricGuide(mean, logQ)}}
	exp := Sampler{a: leaf{kind: leafExponential, mean: mean, guide: exponentialGuide(mean)}}
	return map[string]guideCase{
		"geometric": {geo.a.guide, samplerAt(geo),
			func(m uint64) int { return geometricAt(m, mean, logQ) }, experimentShare(mean)},
		"exponential": {exp.a.guide, samplerAt(exp),
			func(m uint64) int { return latency(exponentialAt(m, mean)) }, experimentShare(mean)},
	}
}

// gapCases returns GapTable cases for mean: one built for a long run,
// at full size, and one built for the shortest run that gets a table,
// whose 2^(⌈log2 mean⌉+4) buckets answer fewer draws. The formula is
// network.Simulate's issue gap.
func gapCases(mean float64) map[string]guideCase {
	formula := func(m uint64) int { return int(exponentialAt(m, mean)) + 1 }
	long, short := new(GapTable), new(GapTable)
	long.Build(mean, 1e9)
	short.Build(mean, 4*math.Exp2(math.Ceil(math.Log2(mean))+4))
	return map[string]guideCase{
		"gap":       {long.guide, func(m uint64) int { return int(long.Draw(sourceAt(m))) }, formula, experimentShare(mean)},
		"gap-short": {short.guide, func(m uint64) int { return int(short.Draw(sourceAt(m))) }, formula, 0.7},
	}
}

// TestGuideBucketEdges checks the tables where they are most likely to
// be wrong: at every bucket edge of every table, the draws two either
// side of the edge must give the formula's value. A million random
// draws per table must too, and for the means the experiments use, the
// table must answer most of them (else the Sampler is exact but slow).
// GapTable's floor output function is checked the same way at the
// issue-gap means.
func TestGuideBucketEdges(t *testing.T) {
	cases := map[string]guideCase{}
	seeds := map[string]uint64{}
	add := func(mean float64, byKind map[string]guideCase) {
		for kind, c := range byKind {
			name := fmt.Sprintf("%s(%g)", kind, mean)
			cases[name], seeds[name] = c, uint64(mean*1000)
		}
	}
	for _, mean := range guideMeans {
		add(mean, guideCases(mean))
	}
	for _, mean := range gapMeans {
		add(mean, gapCases(mean))
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := c.guide
			check := func(m uint64) {
				if got, want := c.at(m), c.formula(m); got != want {
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
			src := New(seeds[name])
			hits := 0
			const draws = 1_000_000
			for i := 0; i < draws; i++ {
				m := src.Uint64() >> 11
				check(m)
				if g.lookup(m) != 0 {
					hits++
				}
			}
			if share := float64(hits) / draws; share < c.minShare {
				t.Errorf("table answered %.1f%% of draws; want at least %.0f%%", 100*share, 100*c.minShare)
			}
		})
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

// TestGapTableMatchesExponential checks whole streams: at each size
// Build picks — no table for a short run, a cut one, a full one — and
// across rebuilds of one GapTable's storage at another mean, Draw
// returns 1 + int64(Exponential(mean)) from the same Uint64 draws.
func TestGapTableMatchesExponential(t *testing.T) {
	var g GapTable
	for _, mean := range []float64{20, 27.040374217021434, 100, 0.5} {
		for _, draws := range []float64{10, 2048, 8192, 1e9} {
			g.Build(mean, draws)
			got, want := New(uint64(draws)), New(uint64(draws))
			for k := 0; k < 20_000; k++ {
				if g, w := g.Draw(got), 1+int64(want.Exponential(mean)); g != w {
					t.Fatalf("mean %g, %g draws expected: draw %d is %d, formula %d", mean, draws, k, g, w)
				}
			}
		}
	}
}

// TestGapTableSkipsMemo pins that gap tables are private: building and
// drawing from them at more distinct means than the shared memo holds
// leaves the memo exactly as it was, so the node simulator's Samplers
// keep their slots.
func TestGapTableSkipsMemo(t *testing.T) {
	size := func() int {
		guides.mu.Lock()
		defer guides.mu.Unlock()
		return len(guides.tables)
	}
	before := size()
	var g GapTable
	src := New(1)
	for i := 0; i < 2*maxGuides; i++ {
		g.Build(20+float64(i)/7, 1e6)
		g.Draw(src)
	}
	if after := size(); after != before {
		t.Errorf("shared memo held %d tables before building gap tables and %d after", before, after)
	}
}
