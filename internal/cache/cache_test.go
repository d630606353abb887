package cache

import (
	"testing"

	"regreloc/internal/rng"
)

func TestCacheBasics(t *testing.T) {
	c := New(64, 1, 4) // direct-mapped, 16 lines
	if c.sets != 16 {
		t.Fatalf("sets = %d", c.sets)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) || !c.Access(1) || !c.Access(3) {
		t.Error("same-line accesses missed")
	}
	if c.Access(4) {
		t.Error("next line should miss")
	}
	h, m := c.Stats()
	if h != 3 || m != 2 {
		t.Errorf("stats = %d/%d", h, m)
	}
	if c.MissRate() != 0.4 {
		t.Errorf("miss rate = %g", c.MissRate())
	}
}

// TestIndexMatchesDivision pins the shift-and-mask split of an address
// to the division form it replaced, across geometries and addresses
// that include the shared region's high bits.
func TestIndexMatchesDivision(t *testing.T) {
	src := rng.New(3)
	for _, g := range []struct{ words, ways, line int }{
		{64, 1, 4}, {64, 2, 4}, {4096, 2, 4}, {4096, 4, 8}, {1 << 14, 1, 1}, {256, 64, 4},
	} {
		c := New(g.words, g.ways, g.line)
		sets := uint64(c.sets)
		for i := 0; i < 10000; i++ {
			addr := src.Uint64() >> uint(src.Intn(64))
			line := addr / uint64(g.line)
			set, tag := c.index(addr)
			if set != int(line%sets) || tag != line/sets {
				t.Fatalf("%+v: index(%#x) = (%d, %#x), want (%d, %#x)", g, addr, set, tag, line%sets, line/sets)
			}
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(64, 1, 4) // 16 sets; addresses 0 and 64*... map to set 0
	c.Access(0)
	conflicting := uint64(16 * 4) // same set, different tag
	c.Access(conflicting)
	// The conflict evicted line 0.
	if c.Access(0) {
		t.Error("direct-mapped conflict did not evict")
	}
}

func TestTwoWayAvoidsConflict(t *testing.T) {
	c := New(64, 2, 4)             // 8 sets, 2 ways
	a, b := uint64(0), uint64(8*4) // same set
	c.Access(a)
	c.Access(b)
	if !c.Access(a) || !c.Access(b) {
		t.Error("2-way cache evicted one of two resident lines")
	}
	// A third conflicting line evicts the LRU (a, touched before b...
	// actually a was touched more recently via the hit; LRU is b).
	c.Access(a)              // a most recent
	c.Access(uint64(16 * 4)) // same set, evicts b
	if !c.Access(a) {
		t.Error("LRU evicted the most recently used line")
	}
	if c.Access(b) {
		t.Error("LRU kept the least recently used line")
	}
}

func TestFlushAndReset(t *testing.T) {
	c := New(64, 2, 4)
	c.Access(0)
	c.Access(0)
	c.ResetStats()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("ResetStats failed")
	}
	if !c.Access(0) {
		t.Error("ResetStats flushed contents")
	}
	c.Flush()
	if c.Access(0) {
		t.Error("Flush kept contents")
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 1, 1) },
		func() { New(64, 3, 4) },
		func() { New(48, 2, 4) },
		func() { New(8, 4, 4) }, // fewer lines than ways
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

func TestRefStreamLocality(t *testing.T) {
	src := rng.New(3)
	s := NewRefStream(1000, 64, 0.9, 1<<16, src)
	inWS := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a := s.Next()
		if a >= 1000 && a < 1064 {
			inWS++
		} else if a < sharedBase {
			t.Fatalf("address %d outside both regions", a)
		}
	}
	frac := float64(inWS) / n
	if frac < 0.88 || frac > 0.92 {
		t.Errorf("in-working-set fraction = %.3f want ~0.9", frac)
	}
}

func TestRefStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid stream accepted")
		}
	}()
	NewRefStream(0, 0, 0.5, 10, rng.New(1))
}

func TestInterferenceGrowsWithContexts(t *testing.T) {
	// Section 5.2: "Several studies have indicated that most cache
	// interference is destructive, increasing the cache miss ratio."
	// With fixed per-thread working sets, more contexts -> more misses.
	s := DefaultStudy()
	m1 := s.MissRate(1, 7)
	m4 := s.MissRate(4, 7)
	m8 := s.MissRate(8, 7)
	if !(m1 < m4 && m4 < m8) {
		t.Errorf("miss rates not increasing: %0.4f, %0.4f, %0.4f", m1, m4, m8)
	}
}

func TestShrinkingWorkingSetsReduceInterference(t *testing.T) {
	// Agarwal's observation: if working sets shrink with parallelism,
	// interference is reduced.
	fixed := DefaultStudy()
	shrink := DefaultStudy()
	shrink.ShrinkWithParallelism = true
	if s, f := shrink.MissRate(8, 7), fixed.MissRate(8, 7); s >= f {
		t.Errorf("shrinking working sets did not reduce miss rate: %0.4f vs %0.4f", s, f)
	}
}

func TestRunLength(t *testing.T) {
	if RunLength(0.01) != 100 {
		t.Error("run length conversion wrong")
	}
	if RunLength(0) < 1e8 {
		t.Error("zero miss rate should give a huge run length")
	}
}

func TestUtilizationCurveHasInteriorOptimum(t *testing.T) {
	// The Section 5.2 tradeoff: utilization rises with contexts
	// (latency tolerance) then falls (cache thrashing). With a long
	// fault latency and a cache that four working sets overflow, the
	// best N is interior.
	s := DefaultStudy()
	curve := s.Curve(10, 500, 6, 7)
	best := 0
	for i, u := range curve {
		if u > curve[best] {
			best = i
		}
	}
	bestN := best + 1
	if bestN <= 1 || bestN >= 10 {
		t.Errorf("optimum at N=%d (curve %v), expected interior", bestN, curve)
	}
	// The curve must actually fall after the optimum (thrashing).
	if curve[len(curve)-1] >= curve[best]*0.98 {
		t.Errorf("no thrashing decline: best %.3f, last %.3f", curve[best], curve[len(curve)-1])
	}
}

func TestAdaptiveConvergesNearOptimum(t *testing.T) {
	s := DefaultStudy()
	curve := s.Curve(10, 500, 6, 7)
	best := 0
	for i, u := range curve {
		if u > curve[best] {
			best = i
		}
	}
	bestN := best + 1
	a := NewAdaptive(1, 1, 10)
	n, util := a.Converge(s, 500, 6, 30, 7)
	if util < curve[best]*0.9 {
		t.Errorf("adaptive settled at N=%d util %.3f; optimum N=%d util %.3f",
			n, util, bestN, curve[best])
	}
}

func TestAdaptiveBounds(t *testing.T) {
	a := NewAdaptive(2, 1, 3)
	for i := 0; i < 50; i++ {
		n := a.Observe(0.5)
		if n < 1 || n > 3 {
			t.Fatalf("limit %d escaped bounds", n)
		}
	}
}

func TestAdaptivePanics(t *testing.T) {
	for _, args := range [][3]int{{0, 0, 5}, {6, 1, 5}, {1, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAdaptive(%v) did not panic", args)
				}
			}()
			NewAdaptive(args[0], args[1], args[2])
		}()
	}
}

func TestMissRateDeterministic(t *testing.T) {
	s := DefaultStudy()
	if s.MissRate(4, 9) != s.MissRate(4, 9) {
		t.Error("miss rate not reproducible")
	}
}
