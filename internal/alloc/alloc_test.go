package alloc

import (
	"testing"
	"testing/quick"

	"regreloc/internal/rng"
	"regreloc/internal/stats"
)

func TestRoundContextSize(t *testing.T) {
	// Paper Section 2.3: practical sizes for C drawn from [6, 24] are
	// 8, 16, 32 with a 4-register minimum.
	cases := []struct{ c, want int }{
		{1, 4}, {4, 4}, {5, 8}, {6, 8}, {8, 8}, {9, 16},
		{16, 16}, {17, 32}, {24, 32}, {32, 32},
	}
	for _, c := range cases {
		if got := RoundContextSize(c.c, 4, 64); got != c.want {
			t.Errorf("RoundContextSize(%d) = %d want %d", c.c, got, c.want)
		}
	}
}

func TestRoundContextSizePanics(t *testing.T) {
	for _, c := range []int{0, -3, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RoundContextSize(%d) did not panic", c)
				}
			}()
			RoundContextSize(c, 4, 64)
		}()
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// allAllocators returns one of each allocator configured for a
// 128-register file, keyed by name.
func allAllocators() map[string]Allocator {
	return map[string]Allocator{
		"bitmap": NewBitmap(128, 64, FlexibleCosts),
		"fixed":  NewFixed(128, 32),
		"lookup": NewLookup(128, LookupCosts),
		"buddy":  NewBuddy(128, 4, 64, FlexibleCosts),
	}
}

func TestAllocBasics(t *testing.T) {
	for name, a := range allAllocators() {
		t.Run(name, func(t *testing.T) {
			if a.FileSize() != 128 {
				t.Fatalf("FileSize = %d", a.FileSize())
			}
			if a.FreeRegisters() != 128 {
				t.Fatalf("initial FreeRegisters = %d", a.FreeRegisters())
			}
			ctx, ok := a.Alloc(10)
			if !ok {
				t.Fatal("Alloc(10) failed on empty file")
			}
			if ctx.Size < 10 {
				t.Fatalf("context size %d < required 10", ctx.Size)
			}
			if ctx.Base%ctx.Size != 0 {
				t.Fatalf("context base %d not aligned to size %d (invalid RRM)", ctx.Base, ctx.Size)
			}
			if a.FreeRegisters() != 128-ctx.Size {
				t.Fatalf("FreeRegisters = %d after allocating %d", a.FreeRegisters(), ctx.Size)
			}
			a.Free(ctx)
			if a.FreeRegisters() != 128 {
				t.Fatalf("FreeRegisters = %d after free", a.FreeRegisters())
			}
		})
	}
}

func TestContextRRMEqualsBase(t *testing.T) {
	c := Context{Base: 40, Size: 8}
	if c.RRM() != 40 {
		t.Errorf("RRM = %d", c.RRM())
	}
}

func TestBitmapMatchesPaperSizes(t *testing.T) {
	// With F=128, contexts of size 8 rounded from C in [6,8]: should fit
	// exactly 16 size-8 contexts.
	a := NewBitmap(128, 64, FlexibleCosts)
	var got []Context
	for {
		ctx, ok := a.Alloc(8)
		if !ok {
			break
		}
		got = append(got, ctx)
	}
	if len(got) != 16 {
		t.Errorf("packed %d size-8 contexts, want 16", len(got))
	}
	if a.FreeRegisters() != 0 {
		t.Errorf("%d registers left", a.FreeRegisters())
	}
}

func TestFixedCapacityIsFOver32(t *testing.T) {
	// The conventional baseline: F/32 contexts regardless of C.
	for _, f := range []int{64, 128, 256} {
		a := NewFixed(f, 32)
		n := 0
		for {
			if _, ok := a.Alloc(6); !ok {
				break
			}
			n++
		}
		if n != f/32 {
			t.Errorf("F=%d: fixed contexts = %d want %d", f, n, f/32)
		}
	}
}

func TestFixedRejectsOversize(t *testing.T) {
	a := NewFixed(128, 32)
	if _, ok := a.Alloc(33); ok {
		t.Error("fixed allocator accepted a 33-register thread")
	}
}

func TestFlexibleHoldsMoreContextsThanFixed(t *testing.T) {
	// The paper's central claim at the allocator level: for C ~ U[6,24],
	// register relocation keeps more contexts resident than fixed-32.
	src := rng.New(1)
	dist := rng.UniformInt{Lo: 6, Hi: 24}
	for _, f := range []int{64, 128, 256} {
		flex := NewBitmap(f, 64, FlexibleCosts)
		fixed := NewFixed(f, 32)
		nFlex, nFixed := 0, 0
		for {
			if _, ok := flex.Alloc(dist.Sample(src)); !ok {
				break
			}
			nFlex++
		}
		for {
			if _, ok := fixed.Alloc(dist.Sample(src)); !ok {
				break
			}
			nFixed++
		}
		if nFlex <= nFixed {
			t.Errorf("F=%d: flexible %d contexts <= fixed %d", f, nFlex, nFixed)
		}
	}
}

func TestHomogeneousC8Quadruples(t *testing.T) {
	// Section 3.4: with C=8 homogeneous threads, flexible supports 4x
	// the contexts of fixed-32.
	flex := NewBitmap(128, 64, FlexibleCosts)
	n := 0
	for {
		if _, ok := flex.Alloc(8); !ok {
			break
		}
		n++
	}
	if n != 16 {
		t.Errorf("flexible C=8 contexts = %d want 16 (4x fixed's 4)", n)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	for name, a := range allAllocators() {
		t.Run(name, func(t *testing.T) {
			ctx, ok := a.Alloc(16)
			if !ok {
				t.Fatal("alloc failed")
			}
			a.Free(ctx)
			defer func() {
				if recover() == nil {
					t.Error("double free did not panic")
				}
			}()
			a.Free(ctx)
		})
	}
}

func TestFreeUnallocatedPanics(t *testing.T) {
	a := NewBitmap(128, 64, FlexibleCosts)
	defer func() {
		if recover() == nil {
			t.Error("freeing unallocated context did not panic")
		}
	}()
	a.Free(Context{Base: 0, Size: 16})
}

func TestReset(t *testing.T) {
	for name, a := range allAllocators() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				a.Alloc(16)
			}
			a.Reset()
			if a.FreeRegisters() != a.FileSize() {
				t.Errorf("after Reset FreeRegisters = %d", a.FreeRegisters())
			}
		})
	}
}

func TestLookupTwoSizesOnly(t *testing.T) {
	a := NewLookup(128, LookupCosts)
	ctx, ok := a.Alloc(6)
	if !ok || ctx.Size != 16 {
		t.Errorf("Alloc(6) = %+v, want size 16", ctx)
	}
	ctx, ok = a.Alloc(17)
	if !ok || ctx.Size != 32 {
		t.Errorf("Alloc(17) = %+v, want size 32", ctx)
	}
	if _, ok := a.Alloc(33); ok {
		t.Error("lookup accepted > 32 registers")
	}
}

func TestLookup32Alignment(t *testing.T) {
	a := NewLookup(64, LookupCosts)
	// Take one 16-slot, then a 32: the 32 must be aligned (base 32).
	c16, _ := a.Alloc(16)
	if c16.Base != 0 {
		t.Fatalf("first 16 at %d", c16.Base)
	}
	c32, ok := a.Alloc(32)
	if !ok || c32.Base != 32 {
		t.Errorf("32-context at %d (ok=%v), want 32", c32.Base, ok)
	}
	// Only 16 registers left (slot 1).
	if a.FreeRegisters() != 16 {
		t.Errorf("free = %d", a.FreeRegisters())
	}
	if _, ok := a.Alloc(32); ok {
		t.Error("allocated 32 from fragmented group")
	}
	if c, ok := a.Alloc(16); !ok || c.Base != 16 {
		t.Errorf("last 16-slot: %+v ok=%v", c, ok)
	}
}

func TestBuddyCoalescing(t *testing.T) {
	a := NewBuddy(128, 4, 64, FlexibleCosts)
	// Fill with size-8 blocks, free them all, then a size-64 block must
	// succeed (requires full coalescing).
	var ctxs []Context
	for {
		ctx, ok := a.Alloc(8)
		if !ok {
			break
		}
		ctxs = append(ctxs, ctx)
	}
	if len(ctxs) != 16 {
		t.Fatalf("packed %d size-8 blocks", len(ctxs))
	}
	for _, c := range ctxs {
		a.Free(c)
	}
	if _, ok := a.Alloc(64); !ok {
		t.Error("buddy failed to coalesce freed blocks into a 64-block")
	}
}

func TestCostModels(t *testing.T) {
	if FlexibleCosts.AllocSucceed != 25 || FlexibleCosts.AllocFail != 15 || FlexibleCosts.Dealloc != 5 {
		t.Error("FlexibleCosts deviate from Figure 4")
	}
	if FixedCosts != (CostModel{}) {
		t.Error("FixedCosts must be zero (Figure 4)")
	}
	var acct stats.CycleAccount
	FlexibleCosts.ChargeAlloc(&acct, true)
	FlexibleCosts.ChargeAlloc(&acct, false)
	FlexibleCosts.ChargeDealloc(&acct)
	if acct.Get(stats.Alloc) != 40 || acct.Get(stats.Dealloc) != 5 {
		t.Errorf("charges wrong: alloc=%d dealloc=%d", acct.Get(stats.Alloc), acct.Get(stats.Dealloc))
	}
}

func TestAllocatorCostsAccessor(t *testing.T) {
	if NewBitmap(128, 64, FlexibleCosts).Costs() != FlexibleCosts {
		t.Error("bitmap costs")
	}
	if NewFixed(128, 32).Costs() != FixedCosts {
		t.Error("fixed costs")
	}
	if NewLookup(128, LookupCosts).Costs() != LookupCosts {
		t.Error("lookup costs")
	}
}

// invariantChecker drives an allocator with a random alloc/free
// workload and validates invariants after every step.
func checkAllocatorInvariants(t *testing.T, a Allocator, seed uint64, steps int) {
	t.Helper()
	src := rng.New(seed)
	type live struct{ ctx Context }
	var lives []live
	used := 0
	for i := 0; i < steps; i++ {
		if len(lives) > 0 && src.Intn(2) == 0 {
			k := src.Intn(len(lives))
			a.Free(lives[k].ctx)
			used -= lives[k].ctx.Size
			lives[k] = lives[len(lives)-1]
			lives = lives[:len(lives)-1]
		} else {
			req := src.IntRange(1, 32)
			ctx, ok := a.Alloc(req)
			if ok {
				if ctx.Size < req {
					t.Fatalf("step %d: size %d < required %d", i, ctx.Size, req)
				}
				if ctx.Base%ctx.Size != 0 {
					t.Fatalf("step %d: base %d unaligned for size %d", i, ctx.Base, ctx.Size)
				}
				if ctx.Base+ctx.Size > a.FileSize() {
					t.Fatalf("step %d: context %+v beyond file", i, ctx)
				}
				// No overlap with any live context.
				for _, l := range lives {
					if ctx.Base < l.ctx.Base+l.ctx.Size && l.ctx.Base < ctx.Base+ctx.Size {
						t.Fatalf("step %d: %+v overlaps %+v", i, ctx, l.ctx)
					}
				}
				lives = append(lives, live{ctx})
				used += ctx.Size
			}
		}
		if free := a.FreeRegisters(); free > a.FileSize()-used {
			t.Fatalf("step %d: free %d exceeds actual %d", i, free, a.FileSize()-used)
		}
	}
}

func TestAllocatorInvariantsRandomWorkload(t *testing.T) {
	for name, a := range allAllocators() {
		t.Run(name, func(t *testing.T) {
			checkAllocatorInvariants(t, a, 99, 5000)
		})
	}
}

// TestFailedAllocMonotoneAndInert checks the failure promises on
// Allocator over random Alloc/Free sequences. Each allocator runs beside
// an identical twin that receives the same operations, except that
// after a failure the subject alone is also asked for a requirement at
// least as large as the smallest one that failed since the last Free.
// That request must fail, and the twins must keep answering alike, so
// it changed nothing.
func TestFailedAllocMonotoneAndInert(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() Allocator
		max  int // largest requirement asked for
	}{
		{"bitmap", func() Allocator { return NewBitmap(128, 64, FlexibleCosts) }, 64},
		{"fixed", func() Allocator { return NewFixed(128, 32) }, 48},
		{"lookup", func() Allocator { return NewLookup(128, LookupCosts) }, 48},
		{"buddy", func() Allocator { return NewBuddy(128, 4, 64, FlexibleCosts) }, 64},
		{"firstfit", func() Allocator { return NewFirstFit(128, 64, ExactCosts) }, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, twin := c.mk(), c.mk()
			src := rng.New(7)
			var live []Context
			failMin, fails := 0, 0 // smallest failed requirement since the last Free; 0 = none
			for step := 0; step < 20000; step++ {
				if len(live) > 0 && src.Intn(3) == 0 {
					k := src.Intn(len(live))
					a.Free(live[k])
					twin.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					failMin = 0
					continue
				}
				r := src.IntRange(1, c.max)
				ctx, ok := a.Alloc(r)
				if tctx, tok := twin.Alloc(r); tctx != ctx || tok != ok {
					t.Fatalf("step %d: Alloc(%d) = %+v, %v; twin got %+v, %v", step, r, ctx, ok, tctx, tok)
				}
				if ok {
					if failMin != 0 && r >= failMin {
						t.Fatalf("step %d: Alloc(%d) succeeded after Alloc(%d) failed with no Free between", step, r, failMin)
					}
					live = append(live, ctx)
					continue
				}
				fails++
				if failMin == 0 || r < failMin {
					failMin = r
				}
				probe := src.IntRange(failMin, c.max)
				if ctx, ok := a.Alloc(probe); ok {
					t.Fatalf("step %d: Alloc(%d) = %+v after Alloc(%d) failed with no Free between", step, probe, ctx, failMin)
				}
			}
			if fails < 100 {
				t.Fatalf("only %d failed allocations in the sequence; the property was barely exercised", fails)
			}
		})
	}
}

func TestBitmapBuddyEquivalentCapacity(t *testing.T) {
	// Property: for any sequence of allocations without frees, bitmap
	// and buddy admit the same number of contexts (both are first-fit
	// power-of-two aligned allocators over the same file).
	f := func(reqsRaw []uint8) bool {
		bm := NewBitmap(256, 64, FlexibleCosts)
		bd := NewBuddy(256, 4, 64, FlexibleCosts)
		for _, r := range reqsRaw {
			req := int(r)%32 + 1
			_, ok1 := bm.Alloc(req)
			_, ok2 := bd.Alloc(req)
			if ok1 != ok2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewBitmap(48, 32, FlexibleCosts) },  // not a power of two
		func() { NewBitmap(512, 64, FlexibleCosts) }, // beyond one bitmap word
		func() { NewBitmap(128, 3, FlexibleCosts) },  // bad max context
		func() { NewFixed(100, 32) },                 // bad file size
		func() { NewFixed(64, 128) },                 // slot > file
		func() { NewLookup(32, LookupCosts) },        // too small
		func() { NewBuddy(128, 3, 64, FixedCosts) },  // bad min
		func() { NewBuddy(128, 4, 256, FixedCosts) }, // max > file
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

func TestBuddyLargeFile(t *testing.T) {
	// Buddy must handle files beyond the single-word bitmap limit.
	a := NewBuddy(1024, 4, 64, FlexibleCosts)
	n := 0
	for {
		if _, ok := a.Alloc(64); !ok {
			break
		}
		n++
	}
	if n != 16 {
		t.Errorf("1024-register file held %d size-64 contexts, want 16", n)
	}
}
