package alloc

import (
	"testing"

	"regreloc/internal/rng"
)

func TestFirstFitExactSizes(t *testing.T) {
	a := NewFirstFit(128, 64, ExactCosts)
	ctx, ok := a.Alloc(17)
	if !ok || ctx.Size != 17 || ctx.Base != 0 {
		t.Fatalf("ctx = %+v ok=%v", ctx, ok)
	}
	ctx2, ok := a.Alloc(6)
	if !ok || ctx2.Size != 6 || ctx2.Base != 17 {
		t.Fatalf("ctx2 = %+v", ctx2)
	}
	if a.FreeRegisters() != 128-23 {
		t.Errorf("free = %d", a.FreeRegisters())
	}
}

func TestFirstFitNoRoundingWaste(t *testing.T) {
	// The Section 4 payoff: C ~ U[6,24] threads pack by exact size, so
	// expected contexts per 128 registers ≈ 128/15 ≈ 8.5 vs the
	// pow2-rounded ~5.95.
	src := rng.New(1)
	dist := rng.UniformInt{Lo: 6, Hi: 24}
	exact := NewFirstFit(128, 64, ExactCosts)
	pow2 := NewBitmap(128, 64, FlexibleCosts)
	nExact, nPow2 := 0, 0
	for {
		if _, ok := exact.Alloc(dist.Sample(src)); !ok {
			break
		}
		nExact++
	}
	for {
		if _, ok := pow2.Alloc(dist.Sample(src)); !ok {
			break
		}
		nPow2++
	}
	if nExact <= nPow2 {
		t.Errorf("exact packing %d <= pow2 %d", nExact, nPow2)
	}
}

func TestFirstFitCoalescing(t *testing.T) {
	a := NewFirstFit(128, 64, ExactCosts)
	c1, _ := a.Alloc(30)
	c2, _ := a.Alloc(30)
	c3, _ := a.Alloc(30)
	_, _ = c1, c3
	// Free the middle, then the first: the spans must coalesce so a
	// 60-register context fits at the front.
	a.Free(c2)
	a.Free(c1)
	big, ok := a.Alloc(60)
	if !ok || big.Base != 0 || big.Size != 60 {
		t.Errorf("coalesced alloc = %+v ok=%v (fragments %d)", big, ok, len(a.free))
	}
}

func TestFirstFitCoalesceAllThreeWays(t *testing.T) {
	a := NewFirstFit(128, 128, ExactCosts)
	c1, _ := a.Alloc(40)
	c2, _ := a.Alloc(40)
	c3, _ := a.Alloc(48)
	a.Free(c1)
	a.Free(c3)
	a.Free(c2) // merges with both neighbors
	if len(a.free) != 1 {
		t.Errorf("fragments = %d want 1", len(a.free))
	}
	if _, ok := a.Alloc(128); !ok {
		t.Error("full-file alloc failed after coalescing")
	}
}

func TestFirstFitMaxContext(t *testing.T) {
	a := NewFirstFit(128, 64, ExactCosts)
	if _, ok := a.Alloc(65); ok {
		t.Error("oversized context allocated")
	}
}

func TestFirstFitDoubleFreePanics(t *testing.T) {
	a := NewFirstFit(128, 64, ExactCosts)
	ctx, _ := a.Alloc(10)
	a.Free(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(ctx)
}

func TestFirstFitInvalidRequirementPanics(t *testing.T) {
	a := NewFirstFit(128, 64, ExactCosts)
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	a.Alloc(0)
}

func TestFirstFitRandomWorkloadInvariants(t *testing.T) {
	a := NewFirstFit(256, 64, ExactCosts)
	src := rng.New(5)
	var live []Context
	used := 0
	for i := 0; i < 8000; i++ {
		if len(live) > 0 && src.Intn(2) == 0 {
			k := src.Intn(len(live))
			a.Free(live[k])
			used -= live[k].Size
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			req := src.IntRange(1, 64)
			ctx, ok := a.Alloc(req)
			if !ok {
				continue
			}
			if ctx.Size != req || ctx.Base+ctx.Size > 256 {
				t.Fatalf("step %d: bad context %+v", i, ctx)
			}
			for _, l := range live {
				if ctx.Base < l.Base+l.Size && l.Base < ctx.Base+ctx.Size {
					t.Fatalf("step %d: %+v overlaps %+v", i, ctx, l)
				}
			}
			live = append(live, ctx)
			used += req
		}
		if a.FreeRegisters() != 256-used {
			t.Fatalf("step %d: free %d want %d", i, a.FreeRegisters(), 256-used)
		}
	}
	// Free everything: one fragment remains.
	for _, l := range live {
		a.Free(l)
	}
	if len(a.free) != 1 || a.FreeRegisters() != 256 {
		t.Errorf("after draining: fragments=%d free=%d", len(a.free), a.FreeRegisters())
	}
}
