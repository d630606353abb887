package bitmap

import (
	"testing"
	"testing/quick"
)

func TestFF1(t *testing.T) {
	cases := []struct {
		w    Word
		want int
	}{
		{0, -1},
		{1, 0},
		{2, 1},
		{0x80, 7},
		{0x8000000000000000, 63},
		{0xff00, 8},
	}
	for _, c := range cases {
		if got := c.w.FF1(); got != c.want {
			t.Errorf("FF1(%#x) = %d want %d", uint64(c.w), got, c.want)
		}
	}
}

func TestBlockMapMatchesPaperCode(t *testing.T) {
	// Replicate Appendix A ContextAlloc16's prefix scan: with a 32-chunk
	// map, the 4-chunk block map is AllocMap & (AllocMap>>1), &= >>2,
	// &= 0x11111111.
	for _, m := range []uint32{0, 0xffffffff, 0x0000ffff, 0xf0f0f0f0, 0x12345678, 0xdeadbeef} {
		paper := uint32(m) & (m >> 1)
		paper &= paper >> 2
		paper &= 0x11111111
		got := Word(m).BlockMap(4)
		if uint32(got) != paper {
			t.Errorf("BlockMap(4) of %#x = %#x, paper code gives %#x", m, uint64(got), paper)
		}
	}
}

func TestBlockMapAlignment(t *testing.T) {
	// Chunks 1-4 free (unaligned run of 4) must NOT yield a 4-block.
	w := Word(0b11110)
	if bm := w.BlockMap(4); bm != 0 {
		t.Errorf("unaligned run produced block map %#x", uint64(bm))
	}
	// Chunks 4-7 free (aligned) must yield bit 4.
	w = Word(0b11110000)
	if bm := w.BlockMap(4); bm != 1<<4 {
		t.Errorf("aligned run: block map %#x want bit 4", uint64(bm))
	}
}

func TestBlockMapSize1(t *testing.T) {
	w := Word(0b1010)
	if bm := w.BlockMap(1); bm != w {
		t.Errorf("BlockMap(1) = %#x want identity", uint64(bm))
	}
}

func TestBlockMapInvalidPanics(t *testing.T) {
	for _, n := range []int{0, -1, 3, 65, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockMap(%d) did not panic", n)
				}
			}()
			Word(0).BlockMap(n)
		}()
	}
}

func TestFindAlignedLinear(t *testing.T) {
	// Paper's ContextAlloc64 scenario: 32 chunks, 16-chunk blocks.
	full := Full(32)
	chunk, probes := full.FindAlignedLinear(16, 32)
	if chunk != 0 || probes != 1 {
		t.Errorf("full map: chunk=%d probes=%d", chunk, probes)
	}
	// Low half used: must find the high half on probe 2.
	w := full.ClearBlock(0, 16)
	chunk, probes = w.FindAlignedLinear(16, 32)
	if chunk != 16 || probes != 2 {
		t.Errorf("high half: chunk=%d probes=%d", chunk, probes)
	}
	// Nothing free.
	chunk, _ = Word(0).FindAlignedLinear(16, 32)
	if chunk != -1 {
		t.Errorf("empty map found chunk %d", chunk)
	}
	// Fragmented so no aligned 16-block exists even with 16 free chunks.
	w = Full(32).ClearBlock(8, 16)
	chunk, _ = w.FindAlignedLinear(16, 32)
	if chunk != -1 {
		t.Errorf("fragmented map found chunk %d", chunk)
	}
}

func TestFindAlignedBinary(t *testing.T) {
	// 32 chunks, 4-chunk blocks (the paper's ContextAlloc16 case).
	full := Full(32)
	chunk, _ := full.FindAlignedBinary(4, 32)
	if chunk != 0 {
		t.Errorf("full: chunk=%d", chunk)
	}
	// Only chunks 20-23 free.
	w := Word(0).SetBlock(20, 4)
	chunk, _ = w.FindAlignedBinary(4, 32)
	if chunk != 20 {
		t.Errorf("single block at 20: got %d", chunk)
	}
	// Unaligned free run must fail.
	w = Word(0).SetBlock(2, 4) // chunks 2-5 free, not 4-aligned
	chunk, _ = w.FindAlignedBinary(4, 32)
	if chunk != -1 {
		t.Errorf("unaligned run allocated at %d", chunk)
	}
	// Empty fails in one step ("fail quickly").
	_, steps := Word(0).FindAlignedBinary(4, 32)
	if steps != 1 {
		t.Errorf("fail-fast took %d steps", steps)
	}
}

func TestBinaryAgreesWithLinearFirstFit(t *testing.T) {
	// Property: binary search returns the lowest-index free aligned
	// block, like linear first-fit.
	f := func(raw uint32) bool {
		w := Word(raw)
		for _, bc := range []int{1, 2, 4, 8, 16} {
			lin, _ := w.FindAlignedLinear(bc, 32)
			bin, _ := w.FindAlignedBinary(bc, 32)
			if lin != bin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSetClearBlockRoundTrip(t *testing.T) {
	f := func(raw uint64, chunkRaw, sizeExp uint8) bool {
		size := 1 << (sizeExp % 5) // 1..16 chunks
		chunk := int(chunkRaw) % (64 - size + 1)
		w := Word(raw)
		block := Word(blockMaskAt(size) << uint(chunk))
		freed := w.SetBlock(chunk, size)
		if freed&block != block { // not all free
			return false
		}
		cleared := freed.ClearBlock(chunk, size)
		if cleared&block != 0 { // not all used
			return false
		}
		// Bits outside the block are untouched.
		return w&^block == freed&^block && w&^block == cleared&^block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFull(t *testing.T) {
	if Full(32) != Word(0xffffffff) {
		t.Errorf("Full(32) = %#x", uint64(Full(32)))
	}
	if Full(64) != ^Word(0) {
		t.Errorf("Full(64) = %#x", uint64(Full(64)))
	}
	if Full(16).PopCount() != 16 {
		t.Errorf("Full(16) popcount = %d", Full(16).PopCount())
	}
}

func TestStringRendering(t *testing.T) {
	s := Word(0b101).String()
	if s[:4] != "1010" {
		t.Errorf("String prefix = %q", s[:4])
	}
	if len(s) != 64 {
		t.Errorf("String length = %d", len(s))
	}
}
