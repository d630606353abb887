package alloc

import "fmt"

// FirstFit allocates contexts of *exact* (arbitrary) sizes with no
// alignment requirement. It models the AMD Am29000-style base+offset
// register addressing the paper discusses in Section 4: an ADD
// relocation "eliminates the power-of-two constraint on context
// sizes", at the price of a more expensive decode path and — as the
// paper predicts — "the software for managing arbitrary-size contexts
// is likely to be more complex": this allocator must maintain a
// coalescing free list instead of a single bitmap word.
//
// Its value in this repository is the rounding ablation: comparing it
// against the OR/bitmap allocator isolates how many registers the
// power-of-two constraint actually wastes and what that waste costs.
type FirstFit struct {
	fileSize int
	maxCtx   int
	costs    CostModel
	// free spans, sorted by base, non-overlapping, coalesced.
	free  []span
	sizes map[int]int
}

type span struct{ base, size int }

// NewFirstFit returns a FirstFit allocator over fileSize registers
// with per-context size capped at maxCtx.
func NewFirstFit(fileSize, maxCtx int, costs CostModel) *FirstFit {
	validateFileSize(fileSize)
	if maxCtx < 1 || maxCtx > fileSize {
		panic(fmt.Sprintf("alloc: invalid max context size %d", maxCtx))
	}
	f := &FirstFit{fileSize: fileSize, maxCtx: maxCtx, costs: costs}
	f.Reset()
	return f
}

// Reset implements Allocator.
func (f *FirstFit) Reset() {
	f.free = []span{{0, f.fileSize}}
	f.sizes = make(map[int]int)
}

// Alloc implements Allocator: the context size equals the requirement
// exactly — zero internal fragmentation.
func (f *FirstFit) Alloc(required int) (Context, bool) {
	if required < 1 {
		panic(fmt.Sprintf("alloc: invalid requirement %d", required))
	}
	if required > f.maxCtx {
		return Context{}, false
	}
	for i, sp := range f.free {
		if sp.size < required {
			continue
		}
		base := sp.base
		if sp.size == required {
			f.free = append(f.free[:i], f.free[i+1:]...)
		} else {
			f.free[i] = span{sp.base + required, sp.size - required}
		}
		f.sizes[base] = required
		return Context{Base: base, Size: required}, true
	}
	return Context{}, false
}

// Free implements Allocator, coalescing with adjacent free spans.
func (f *FirstFit) Free(ctx Context) {
	size, ok := f.sizes[ctx.Base]
	if !ok || size != ctx.Size {
		panic(fmt.Sprintf("alloc: freeing unallocated first-fit context %+v", ctx))
	}
	delete(f.sizes, ctx.Base)
	// Insert keeping base order.
	i := 0
	for i < len(f.free) && f.free[i].base < ctx.Base {
		i++
	}
	f.free = append(f.free, span{})
	copy(f.free[i+1:], f.free[i:])
	f.free[i] = span{ctx.Base, ctx.Size}
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(f.free) && f.free[i].base+f.free[i].size == f.free[i+1].base {
		f.free[i].size += f.free[i+1].size
		f.free = append(f.free[:i+1], f.free[i+2:]...)
	}
	if i > 0 && f.free[i-1].base+f.free[i-1].size == f.free[i].base {
		f.free[i-1].size += f.free[i].size
		f.free = append(f.free[:i], f.free[i+1:]...)
	}
}

// FreeRegisters implements Allocator.
func (f *FirstFit) FreeRegisters() int {
	n := 0
	for _, sp := range f.free {
		n += sp.size
	}
	return n
}

// FileSize implements Allocator.
func (f *FirstFit) FileSize() int { return f.fileSize }

// Costs implements Allocator.
func (f *FirstFit) Costs() CostModel { return f.costs }

// ExactCosts models the Section 4 prediction that arbitrary-size
// context management costs more in software than the bitmap scheme: a
// free-list walk instead of a couple of mask operations.
var ExactCosts = CostModel{AllocSucceed: 40, AllocFail: 20, Dealloc: 15}
