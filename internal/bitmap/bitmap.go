// Package bitmap implements the allocation-bitmap primitives from
// Appendix A of the register relocation paper: find-first-set (the
// Motorola MC88000 FF1 instruction the paper cites), the bit-parallel
// prefix scan that collapses a chunk map into an aligned-block map, and
// linear/binary searches for free aligned blocks.
//
// A bitmap word describes the register file in "chunks": bit i set
// means chunk i (a contiguous group of registers) is FREE; clear means
// used. With 128 registers and 4-register chunks the whole map fits in
// one 32-bit word, exactly as in the paper's C code. This package
// generalizes to 64-bit words so register files up to 256 registers
// with 4-register chunks also fit one word.
package bitmap

import (
	"fmt"
	"math/bits"
)

// Word is an allocation bitmap word. Bit i set means chunk i is free.
type Word uint64

// FF1 returns the index of the least-significant set bit, emulating the
// MC88000 FF1 instruction the paper suggests for fast allocation. It
// returns -1 if no bit is set.
func (w Word) FF1() int {
	if w == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(w))
}

// PopCount returns the number of set (free) bits.
func (w Word) PopCount() int { return bits.OnesCount64(uint64(w)) }

// BlockMap collapses the chunk map into a map of free aligned blocks of
// blockChunks chunks, using the paper's bit-parallel prefix scan
// (Appendix A, ContextAlloc16). Bit i of the result is set iff chunks
// [i, i+blockChunks) are all free AND i is blockChunks-aligned.
// blockChunks must be a power of two in [1, 64].
func (w Word) BlockMap(blockChunks int) Word {
	if blockChunks <= 0 || blockChunks > 64 || blockChunks&(blockChunks-1) != 0 {
		panic(fmt.Sprintf("bitmap: invalid block size %d", blockChunks))
	}
	t := uint64(w)
	// Combine pairs, then quads, then ... as in the paper:
	//   tempMap = AllocMap & (AllocMap >> 1);
	//   tempMap &= tempMap >> 2; ...
	for span := 1; span < blockChunks; span *= 2 {
		t &= t >> uint(span)
	}
	// Mask out unaligned positions: keep only bits whose index is a
	// multiple of blockChunks (paper: tempMap &= 0x11111111 for 4-chunk
	// blocks).
	return Word(t & alignMask(blockChunks))
}

// alignMask returns a mask with bit i set iff i % blockChunks == 0.
// blockChunks is a power of two in [1, 64], so the seven possible masks
// are tabled; BlockMap sits on the allocator's hot path and the
// mask-building loop used to show up in CPU profiles.
func alignMask(blockChunks int) uint64 {
	return alignMasks[bits.TrailingZeros64(uint64(blockChunks))]
}

// alignMasks[k] has bit i set iff i is a multiple of 1<<k.
var alignMasks = [7]uint64{
	0xffffffffffffffff, // 1
	0x5555555555555555, // 2
	0x1111111111111111, // 4
	0x0101010101010101, // 8
	0x0001000100010001, // 16
	0x0000000100000001, // 32
	0x0000000000000001, // 64
}

// FindAlignedLinear searches for a free aligned block of blockChunks
// chunks by scanning candidate positions in ascending order, as the
// paper's ContextAlloc64 does for large contexts. It returns the chunk
// index of the block, or -1, plus the number of candidate positions
// probed (the cost model uses this).
func (w Word) FindAlignedLinear(blockChunks, totalChunks int) (chunk, probes int) {
	if totalChunks <= 0 || totalChunks > 64 {
		panic(fmt.Sprintf("bitmap: invalid totalChunks %d", totalChunks))
	}
	mask := blockMaskAt(blockChunks)
	for pos := 0; pos+blockChunks <= totalChunks; pos += blockChunks {
		probes++
		if uint64(w)>>uint(pos)&mask == mask {
			return pos, probes
		}
	}
	return -1, probes
}

// blockMaskAt returns a mask of blockChunks consecutive ones.
func blockMaskAt(blockChunks int) uint64 {
	if blockChunks >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(blockChunks) - 1
}

// FindAlignedBinary searches for a free aligned block using the paper's
// binary search over the block map (ContextAlloc16): first halves, then
// quarters, ... It returns the chunk index or -1, plus the number of
// test-and-shift steps taken.
func (w Word) FindAlignedBinary(blockChunks, totalChunks int) (chunk, steps int) {
	bm := uint64(w.BlockMap(blockChunks))
	bm &= blockMaskAt(totalChunks)
	if bm == 0 {
		return -1, 1 // the paper's "fail quickly" single test
	}
	pos := 0
	for span := totalChunks / 2; span >= 1; span /= 2 {
		steps++
		low := blockMaskAt(span)
		if bm&low == 0 {
			pos += span
			bm >>= uint(span)
		}
		if span == blockChunks {
			break
		}
	}
	return pos, steps
}

// FindAligned returns the chunk index of the lowest free aligned block
// of blockChunks chunks, or -1. It computes the same answer as
// FindAlignedBinary — the lowest set bit of the block map IS the
// lowest aligned free block — via a single FF1, for callers that do
// not need the probe/step counts the cost models consume.
func (w Word) FindAligned(blockChunks, totalChunks int) int {
	bm := w.BlockMap(blockChunks) & Word(blockMaskAt(totalChunks))
	return bm.FF1()
}

// SetBlock marks the blockChunks chunks starting at chunk as free
// (deallocate: AllocMap |= allocMask).
func (w Word) SetBlock(chunk, blockChunks int) Word {
	return w | Word(blockMaskAt(blockChunks)<<uint(chunk))
}

// ClearBlock marks the blockChunks chunks starting at chunk as used
// (allocate: AllocMap &= ^tempMap).
func (w Word) ClearBlock(chunk, blockChunks int) Word {
	return w &^ Word(blockMaskAt(blockChunks)<<uint(chunk))
}

// Full returns a word with the low totalChunks bits set (an entirely
// free register file).
func Full(totalChunks int) Word {
	if totalChunks <= 0 || totalChunks > 64 {
		panic(fmt.Sprintf("bitmap: invalid totalChunks %d", totalChunks))
	}
	return Word(blockMaskAt(totalChunks))
}

// String renders the word as chunks from 0 (leftmost) upward, '1' for
// free, for debugging.
func (w Word) String() string {
	b := make([]byte, 64)
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
