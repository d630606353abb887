package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 times", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	// xoshiro requires a nonzero state; SplitMix seeding must ensure it.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced a degenerate all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children correlated at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(8)] = true
	}
	for v := 0; v < 8; v++ {
		if !seen[v] {
			t.Fatalf("Intn(8) never produced %d in 1000 draws", v)
		}
	}
}

// intnDividing is Intn as it was before the division moved behind the
// lo < bound check: it computes the rejection threshold before every
// draw. Kept as the reference the current Intn must match.
func intnDividing(r *Source, n int) int {
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// TestIntnMatchesDividingReference pins that skipping the division
// changed nothing: every value, and every rejection (hence the stream
// position after each call), matches the always-dividing reference.
// The largest bounds reject almost half their draws, so the rejection
// loop is exercised too.
func TestIntnMatchesDividingReference(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 10, 1000, 1<<31 - 1, 1<<62 + 12345, 1<<63 - 1}
	for seed := uint64(0); seed < 5; seed++ {
		for _, n := range bounds {
			got, want := New(seed), New(seed)
			for i := 0; i < 2000; i++ {
				if g, w := got.Intn(n), intnDividing(want, n); g != w {
					t.Fatalf("seed %d Intn(%d) draw %d = %d, reference %d", seed, n, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("seed %d Intn(%d): stream positions diverged", seed, n)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 5000; i++ {
		v := r.IntRange(6, 24)
		if v < 6 || v > 24 {
			t.Fatalf("IntRange(6,24) = %d", v)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	for _, mean := range []float64{1, 8, 32, 128, 512} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("geometric sample %d < 1", v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 && mean > 1 {
			t.Errorf("geometric mean %g: sampled %g (>3%% off)", mean, got)
		}
		if mean == 1 && got != 1 {
			t.Errorf("geometric mean 1 must be degenerate, got %g", got)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	for _, mean := range []float64{16, 256, 4096} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += r.Exponential(mean)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("exponential mean %g: sampled %g", mean, got)
		}
	}
}

func TestGeometricVariance(t *testing.T) {
	// Var of geometric with mean m (p=1/m) is (1-p)/p^2 = m^2 - m.
	r := New(10)
	mean := 32.0
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.Geometric(mean))
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	want := mean*mean - mean
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("geometric variance: got %g want %g", variance, want)
	}
}

func TestDistInterface(t *testing.T) {
	src := New(11)
	cases := []struct {
		d    Dist
		mean float64
	}{
		{Constant{Value: 100}, 100},
		{Geometric{MeanValue: 32}, 32},
		{Exponential{MeanValue: 256}, 256},
		{UniformInt{Lo: 6, Hi: 24}, 15},
	}
	for _, c := range cases {
		if c.d.Mean() != c.mean {
			t.Errorf("%s: Mean() = %g want %g", c.d, c.d.Mean(), c.mean)
		}
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			sum += float64(c.d.Sample(src))
		}
		got := sum / n
		if math.Abs(got-c.mean)/c.mean > 0.05 {
			t.Errorf("%s: sampled mean %g want %g", c.d, got, c.mean)
		}
	}
}

// TestSamplerMatchesDist pins the hoisted constants and the guide
// tables: a Sampler returns its Dist's values from the same draws,
// leaving the stream where the Dist would. Every Dist is drawn twice:
// through NewSampler, whose leaves read the shared memo's tables, and
// through a Sampler built from a full memo, whose leaves all get
// noGuide, so the formula arm is compared on every draw, a Mixture's
// branches included.
func TestSamplerMatchesDist(t *testing.T) {
	dists := []Dist{
		Geometric{MeanValue: 1},
		Geometric{MeanValue: 1.5},
		Geometric{MeanValue: 3.7},
		Geometric{MeanValue: 32},
		Geometric{MeanValue: 1e9},
		Geometric{MeanValue: 1e300},
		Constant{Value: 7},
		Exponential{MeanValue: 1.5},
		Exponential{MeanValue: 64},
		Exponential{MeanValue: 256},
		Exponential{MeanValue: 1024},
		Exponential{MeanValue: 72.45492415319924},
		Exponential{MeanValue: 1e9},
		Exponential{MeanValue: math.Inf(1)},
		UniformInt{Lo: 6, Hi: 24},
		NewWeighted([]int{8, 32}, []float64{3, 1}),
		Mixture{P: 0.8, A: Constant{Value: 64}, B: Exponential{MeanValue: 512}},
		Mixture{P: 0.3, A: Geometric{MeanValue: 8}, B: Exponential{MeanValue: 96}},
		Mixture{P: 0.5, A: Mixture{P: 0.5, A: Constant{Value: 1}, B: Exponential{MeanValue: 8}}, B: Geometric{MeanValue: 1}},
	}
	samplers := map[string]func(Dist) Sampler{
		"tables":  NewSampler,
		"formula": func(d Dist) Sampler { return newSampler(d, newGuideMemo(0)) },
	}
	for name, build := range samplers {
		for _, d := range dists {
			for seed := uint64(1); seed <= 3; seed++ {
				s := build(d)
				if name == "formula" && (len(s.a.guide.answer) > 1 || len(s.b.guide.answer) > 1) {
					t.Fatalf("%s: a Sampler built from a full memo got a table", d)
				}
				got, want := New(seed), New(seed)
				for i := 0; i < 5000; i++ {
					if g, w := s.Sample(got), d.Sample(want); g != w {
						t.Fatalf("%s %s seed %d draw %d: sampler %d, dist %d", name, d, seed, i, g, w)
					}
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("%s %s seed %d: stream positions diverged", name, d, seed)
				}
			}
		}
	}
}

func TestDistStrings(t *testing.T) {
	cases := map[string]Dist{
		"constant(5)":      Constant{Value: 5},
		"geometric(32)":    Geometric{MeanValue: 32},
		"exponential(256)": Exponential{MeanValue: 256},
		"uniform(6,24)":    UniformInt{Lo: 6, Hi: 24},
		"mix(0.80:constant(64), exponential(512))": Mixture{P: 0.8, A: Constant{Value: 64}, B: Exponential{MeanValue: 512}},
	}
	for want, d := range cases {
		if d.String() != want {
			t.Errorf("String() = %q want %q", d.String(), want)
		}
	}
}

func TestUniformIntProperty(t *testing.T) {
	src := New(12)
	f := func(lo int8, span uint8) bool {
		l := int(lo)
		h := l + int(span)
		v := UniformInt{Lo: l, Hi: h}.Sample(src)
		return v >= l && v <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExponentialSampleAtLeastOne(t *testing.T) {
	src := New(13)
	d := Exponential{MeanValue: 2}
	for i := 0; i < 10000; i++ {
		if v := d.Sample(src); v < 1 {
			t.Fatalf("exponential dist sample %d < 1", v)
		}
	}
}

func TestWeightedDistribution(t *testing.T) {
	d := NewWeighted([]int{6, 24}, []float64{4, 1})
	if want := (4*6.0 + 24.0) / 5; d.Mean() != want {
		t.Errorf("mean = %g want %g", d.Mean(), want)
	}
	src := New(21)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(src)
		if v != 6 && v != 24 {
			t.Fatalf("sampled %d", v)
		}
		counts[v]++
	}
	frac := float64(counts[6]) / n
	if frac < 0.78 || frac > 0.82 {
		t.Errorf("P(6) = %.3f want ~0.8", frac)
	}
	if d.String() == "" {
		t.Error("empty description")
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := []func(){
		func() { NewWeighted(nil, nil) },
		func() { NewWeighted([]int{1}, []float64{1, 2}) },
		func() { NewWeighted([]int{1}, []float64{-1}) },
		func() { NewWeighted([]int{1, 2}, []float64{0, 0}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(1, 64, 8, 16, 0)
	b := DeriveSeed(1, 64, 8, 16, 0)
	if a != b {
		t.Fatalf("same inputs derived %#x and %#x", a, b)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	// Every cell of a figure-style sweep grid (and neighbouring base
	// seeds) must get its own stream; collisions would silently
	// reintroduce the correlated-seeding bug.
	seen := map[uint64][]uint64{}
	for _, base := range []uint64{0, 1, 2} {
		for _, f := range []uint64{64, 128, 256} {
			for _, r := range []uint64{8, 32, 128, 512} {
				for _, l := range []uint64{16, 64, 256, 1024} {
					for arch := uint64(0); arch < 3; arch++ {
						coords := []uint64{base, f, r, l, arch}
						s := DeriveSeed(base, f, r, l, arch)
						if prev, dup := seen[s]; dup {
							t.Fatalf("seed %#x for %v collides with %v", s, coords, prev)
						}
						seen[s] = coords
					}
				}
			}
		}
	}
	// Arity matters too: a prefix must not collide with its extensions.
	if DeriveSeed(1) == DeriveSeed(1, 0) || DeriveSeed(1, 0) == DeriveSeed(1, 0, 0) {
		t.Error("prefix coordinates collide with zero-extended ones")
	}
}

func TestDeriveSeedStreamsDecorrelated(t *testing.T) {
	// Sources seeded from adjacent coordinates must not produce
	// correlated output: compare first draws pairwise across a window.
	var prev uint64
	for l := uint64(0); l < 64; l++ {
		v := New(DeriveSeed(1, 64, 8, l, 0)).Uint64()
		if v == prev {
			t.Fatalf("L=%d repeats the previous stream's first draw", l)
		}
		prev = v
	}
}
