package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSaturated(t *testing.T) {
	p := NewParams(32, 128, 8)
	if got := p.Saturated(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("E_sat = %g want 0.8", got)
	}
}

func TestLinear(t *testing.T) {
	p := NewParams(32, 128, 8)
	// One context: 32/(32+128+8) = 32/168.
	if got := p.Linear(1); math.Abs(got-32.0/168.0) > 1e-12 {
		t.Errorf("E_lin(1) = %g", got)
	}
	// Linear in N.
	if math.Abs(p.Linear(3)-3*p.Linear(1)) > 1e-12 {
		t.Error("E_lin not linear in N")
	}
}

func TestSaturationPoint(t *testing.T) {
	p := NewParams(32, 128, 8)
	want := 1 + 128.0/40.0 // 4.2
	if got := p.SaturationPoint(); math.Abs(got-want) > 1e-12 {
		t.Errorf("N* = %g want %g", got, want)
	}
	// At N*, linear and saturated regimes agree.
	if math.Abs(p.Linear(p.SaturationPoint())-p.Saturated()) > 1e-12 {
		t.Error("regimes do not meet at N*")
	}
}

func TestEfficiencyPiecewise(t *testing.T) {
	p := NewParams(32, 128, 8)
	nStar := p.SaturationPoint()
	if got := p.Efficiency(nStar / 2); math.Abs(got-p.Linear(nStar/2)) > 1e-12 {
		t.Error("below N* must be linear")
	}
	if got := p.Efficiency(nStar * 3); got != p.Saturated() {
		t.Error("above N* must saturate")
	}
}

func TestEfficiencyMonotoneProperty(t *testing.T) {
	f := func(rRaw, lRaw, n1Raw, n2Raw uint8) bool {
		p := NewParams(float64(rRaw%100+1), float64(lRaw)*4, 8)
		n1 := float64(n1Raw%16) + 1
		n2 := n1 + float64(n2Raw%16)
		e1, e2 := p.Efficiency(n1), p.Efficiency(n2)
		return e2 >= e1-1e-12 && e2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResidentContexts(t *testing.T) {
	// Fixed-32 on F=128: 4 contexts. Flexible with average rounded size
	// ~21.5 (C ~ U[6,24] rounded to 8/16/32): ~5.95.
	if got := ResidentContexts(128, 32); got != 4 {
		t.Errorf("fixed contexts = %g", got)
	}
	avgFlex := (3*8 + 8*16 + 8*32) / 19.0
	if got := ResidentContexts(128, avgFlex); got < 5.9 || got > 6.0 {
		t.Errorf("flexible contexts = %g want ~5.96", got)
	}
}

func TestSpeedupFactorOfTwoRegime(t *testing.T) {
	// The paper's headline: "register relocation can improve processor
	// utilization by a factor of two for many workloads". In the linear
	// regime the speedup is exactly nFlex/nFixed; homogeneous C=8 on
	// F=128 gives 16 vs 4 contexts, capped by saturation.
	p := NewParams(16, 1000, 8) // deep in the linear regime
	got := p.Efficiency(16) / p.Efficiency(4)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("speedup = %g want 4 (both linear)", got)
	}
	// With L small, both saturate and the gain vanishes.
	p2 := NewParams(128, 16, 8)
	if got := p2.Efficiency(16) / p2.Efficiency(4); math.Abs(got-1) > 1e-9 {
		t.Errorf("saturated speedup = %g want 1", got)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { NewParams(0, 1, 1) },
		func() { NewParams(1, -1, 1) },
		func() { NewParams(1, 1, -1) },
		func() { ResidentContexts(128, 0) },
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
