package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamingBasics(t *testing.T) {
	var s Streaming
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %g want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if want := 32.0 / 7.0; math.Abs(s.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %g want %g", s.Variance(), want)
	}
	if s.Min() != 2 {
		t.Errorf("Min = %g", s.Min())
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
}

func TestStreamingSingleObservation(t *testing.T) {
	var s Streaming
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.CI95() != 0 {
		t.Errorf("single obs: mean=%g var=%g ci=%g", s.Mean(), s.Variance(), s.CI95())
	}
	if s.Min() != 3.5 {
		t.Error("min wrong for single observation")
	}
}

func TestStreamingMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Streaming
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		if len(xs) > 0 {
			want := sum / float64(len(xs))
			ok = math.Abs(s.Mean()-want) <= 1e-6*(1+math.Abs(want))
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCycleAccount(t *testing.T) {
	var c CycleAccount
	c.Charge(Useful, 80)
	c.Charge(Switch, 10)
	c.Charge(Idle, 10)
	if c.Total() != 100 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.Efficiency() != 0.8 {
		t.Errorf("Efficiency = %g", c.Efficiency())
	}
	if c.Get(Switch) != 10 {
		t.Errorf("Get(Switch) = %d", c.Get(Switch))
	}
}

func TestCycleAccountEmpty(t *testing.T) {
	var c CycleAccount
	if c.Efficiency() != 0 || c.Total() != 0 {
		t.Error("empty account should report zeros")
	}
	if c.Breakdown() != "(no cycles)" {
		t.Errorf("Breakdown = %q", c.Breakdown())
	}
}

func TestChargeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	var c CycleAccount
	c.Charge(Useful, -1)
}

func TestAccountSub(t *testing.T) {
	var a, b CycleAccount
	a.Charge(Useful, 100)
	a.Charge(Idle, 50)
	b.Charge(Useful, 30)
	b.Charge(Idle, 20)
	d := a.Sub(&b)
	if d.Get(Useful) != 70 || d.Get(Idle) != 30 {
		t.Errorf("Sub wrong: useful=%d idle=%d", d.Get(Useful), d.Get(Idle))
	}
	// Sub must not mutate operands.
	if a.Get(Useful) != 100 || b.Get(Useful) != 30 {
		t.Error("Sub mutated operands")
	}
}

func TestAccountSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	var a, b CycleAccount
	b.Charge(Useful, 1)
	a.Sub(&b)
}

func TestBreakdownFormat(t *testing.T) {
	var c CycleAccount
	c.Charge(Useful, 75)
	c.Charge(Idle, 25)
	got := c.Breakdown()
	if !strings.Contains(got, "useful=75.0%") || !strings.Contains(got, "idle=25.0%") {
		t.Errorf("Breakdown = %q", got)
	}
	if strings.Index(got, "useful") > strings.Index(got, "idle") {
		t.Errorf("Breakdown not sorted by share: %q", got)
	}
}

func TestActivityString(t *testing.T) {
	want := map[Activity]string{
		Useful: "useful", Switch: "switch", Idle: "idle", Alloc: "alloc",
		Dealloc: "dealloc", Load: "load", Unload: "unload", Queue: "queue", Spin: "spin",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q want %q", int(a), a.String(), s)
		}
	}
	if Activity(99).String() != "activity(99)" {
		t.Errorf("out-of-range String() = %q", Activity(99).String())
	}
	if len(Activities()) != int(numActivities) {
		t.Errorf("Activities() has %d entries", len(Activities()))
	}
}

func TestWindowExcludesTransients(t *testing.T) {
	// Simulate a run whose head and tail are pure idle and whose middle
	// is pure useful work; a 10%/10% window should measure ~100%
	// efficiency.
	const total = 10000
	w := NewWindow(0.1, 0.1, total)
	var acct CycleAccount
	for now := int64(0); now < total; now += 100 {
		if now < 1000 || now >= 9000 {
			acct.Charge(Idle, 100)
		} else {
			acct.Charge(Useful, 100)
		}
		w.MaybeSnapshot(&acct, now+100)
	}
	m := w.Measure(&acct)
	if eff := m.Efficiency(); eff < 0.99 {
		t.Errorf("windowed efficiency = %g, transients not excluded", eff)
	}
	// Full-run efficiency is 0.8 by construction.
	if eff := acct.Efficiency(); math.Abs(eff-0.8) > 1e-9 {
		t.Errorf("full efficiency = %g want 0.8", eff)
	}
}

// TestWindowThresholdsMatchFloatComparison pins the integer thresholds
// to the float test they replaced: a snapshot is due at the first
// progress p with float64(p) >= fraction*float64(total).
func TestWindowThresholdsMatchFloatComparison(t *testing.T) {
	for _, f := range [][2]float64{{0.1, 0.1}, {0.25, 0.25}, {0, 0.3}, {0.3, 0}} {
		for total := int64(1); total <= 5000; total++ {
			w := NewWindow(f[0], f[1], total)
			for _, c := range []struct {
				at   int64
				frac float64
			}{{w.head, f[0]}, {w.tail, 1 - f[1]}} {
				if float64(c.at) < c.frac*float64(total) || c.at > 0 && float64(c.at-1) >= c.frac*float64(total) {
					t.Fatalf("NewWindow(%g, %g, %d): threshold %d is not the first p with p >= %g*%d",
						f[0], f[1], total, c.at, c.frac, total)
				}
			}
		}
	}
}

func TestWindowShortRunFallsBack(t *testing.T) {
	w := NewWindow(0.25, 0.25, 100)
	var acct CycleAccount
	acct.Charge(Useful, 10)
	// No snapshots ever taken.
	m := w.Measure(&acct)
	if m.Get(Useful) != 10 {
		t.Errorf("short run measure = %d want 10", m.Get(Useful))
	}
}

func TestWindowInvalidFractionsPanic(t *testing.T) {
	for _, f := range [][2]float64{{-0.1, 0}, {0, -0.1}, {0.6, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWindow(%g,%g) did not panic", f[0], f[1])
				}
			}()
			NewWindow(f[0], f[1], 100)
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	var a CycleAccount
	a.Charge(Useful, 5)
	b := a.Clone()
	b.Charge(Useful, 5)
	if a.Get(Useful) != 5 || b.Get(Useful) != 10 {
		t.Error("Clone not independent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, x := range []float64{0.5, 1, 2, 50, 500} {
		h.Observe(x)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Sum(); got != 553.5 {
		t.Errorf("Sum = %v", got)
	}
	// le=1: {0.5, 1}; le=10: +{2}; le=100: +{50}; +Inf: +{500}.
	want := []int64{2, 3, 4, 5}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("Cumulative len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cumulative[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %v, want within (1,2]", q)
	}
	if q := h.Quantile(1); q > 2 {
		t.Errorf("p100 = %v", q)
	}
	empty := NewHistogram(1)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile not 0")
	}
	// Overflow observations clamp to the top finite bound.
	over := NewHistogram(1, 2)
	over.Observe(100)
	if q := over.Quantile(0.99); q != 2 {
		t.Errorf("overflow quantile = %v, want 2", q)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}
