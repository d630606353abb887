// Package alloc implements context allocation for a register file
// partitioned by register relocation (paper Sections 2.3 and 3.1,
// Appendix A). An allocator hands out power-of-two-size, size-aligned
// register blocks ("contexts"); the block base doubles as the register
// relocation mask (RRM), since a 2^k-aligned base has zero low-order k
// bits and the OR-relocation then behaves as base+offset.
//
// Four allocators are provided:
//
//   - Bitmap: the paper's general-purpose dynamic allocator (Appendix
//     A): an allocation bitmap over 4-register chunks, linear search for
//     large contexts, bit-parallel prefix scan + binary search for small
//     ones. ~25 cycles to allocate, <5 to deallocate.
//   - Fixed: the conventional hardware baseline: F/32 fixed slots of 32
//     registers, zero software cost (the paper's deliberately
//     conservative comparison).
//   - Lookup: the specialized two-size (16/32) allocator sketched in
//     Section 3.3: a 4-bit-per-group bitmap with a direct lookup table,
//     for workloads where general-purpose allocation is too slow.
//   - Buddy: a buddy-system generalization (an ablation extension): it
//     finds the same blocks as Bitmap but also coalesces aggressively,
//     and supports register files too large for a single bitmap word.
package alloc

import (
	"fmt"

	"regreloc/internal/stats"
)

// Context is an allocated register block. Base is the absolute register
// number of its first register and is used directly as the RRM; Size is
// the power-of-two number of registers.
type Context struct {
	Base int
	Size int
}

// RRM returns the register relocation mask for the context, which is
// simply its size-aligned base register number (Section 2).
func (c Context) RRM() int { return c.Base }

// Allocator allocates and frees contexts in a register file. Alloc is
// given the number of registers the thread actually requires; the
// allocator rounds up to its supported context size. Implementations
// are not safe for concurrent use (they model a per-processor runtime
// structure).
//
// Every implementation keeps two promises about failure, which the
// node's first-fit admission relies on to skip queued threads without
// asking: a failed Alloc changes nothing, and failure is monotone in
// the requirement. Once Alloc(r) fails, Alloc(r') fails for every
// r' >= r (up to the allocator's maximum context size), however many
// other Allocs succeed in between, until the next Free.
type Allocator interface {
	// Alloc returns a context with Size >= required, or ok=false if no
	// suitable block is free.
	Alloc(required int) (ctx Context, ok bool)
	// Free releases a context previously returned by Alloc. Freeing an
	// unallocated context panics: it indicates a runtime-system bug.
	Free(ctx Context)
	// FreeRegisters returns the number of currently unallocated registers.
	FreeRegisters() int
	// FileSize returns the total register file size F.
	FileSize() int
	// Costs returns the cycle cost model for this allocator.
	Costs() CostModel
	// Reset returns the allocator to an entirely free register file.
	Reset()
}

// CostModel gives the cycle cost of allocator operations, matching the
// paper's Figure 4 cost table. The node simulator charges these.
type CostModel struct {
	AllocSucceed int64 // successful context allocation
	AllocFail    int64 // failed allocation attempt
	Dealloc      int64 // context deallocation
}

// Cost models from the paper.
var (
	// FlexibleCosts are the general-purpose dynamic allocation costs
	// (Figure 4): 25-cycle allocation, 15-cycle failure, 5-cycle free.
	FlexibleCosts = CostModel{AllocSucceed: 25, AllocFail: 15, Dealloc: 5}
	// FF1Costs model an architecture with a find-first-set instruction
	// (footnote 2: "approximately 15 RISC cycles").
	FF1Costs = CostModel{AllocSucceed: 15, AllocFail: 10, Dealloc: 5}
	// LookupCosts model the specialized direct-lookup-table allocator
	// from Section 3.3 ("extremely cheaply").
	LookupCosts = CostModel{AllocSucceed: 4, AllocFail: 2, Dealloc: 2}
	// FixedCosts are the conventional hardware-context costs: all zero
	// (Figure 4), deliberately conservative in the baseline's favor.
	FixedCosts = CostModel{}
)

// ChargeAlloc charges acct for one allocation attempt with outcome ok.
func (m CostModel) ChargeAlloc(acct *stats.CycleAccount, ok bool) {
	if ok {
		acct.Charge(stats.Alloc, m.AllocSucceed)
	} else {
		acct.Charge(stats.Alloc, m.AllocFail)
	}
}

// ChargeDealloc charges acct for one deallocation.
func (m CostModel) ChargeDealloc(acct *stats.CycleAccount) {
	acct.Charge(stats.Dealloc, m.Dealloc)
}

// RoundContextSize returns the context size for a thread requiring c
// registers: the smallest power of two >= max(c, minSize) (Section 2.3;
// the minimum context size must hold more than a program counter).
// It panics if c exceeds maxSize, which corresponds to a thread
// requiring more registers than the 2^w operand-addressable limit.
func RoundContextSize(c, minSize, maxSize int) int {
	if c <= 0 {
		panic(fmt.Sprintf("alloc: context requirement %d must be positive", c))
	}
	size := minSize
	for size < c {
		size <<= 1
	}
	if size > maxSize {
		panic(fmt.Sprintf("alloc: requirement %d exceeds maximum context size %d", c, maxSize))
	}
	return size
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// validateFileSize panics unless f is a power of two of at least 32
// registers, the configurations used throughout the paper (F = 64, 128,
// 256).
func validateFileSize(f int) {
	if !IsPow2(f) || f < 32 {
		panic(fmt.Sprintf("alloc: register file size %d must be a power of two >= 32", f))
	}
}
