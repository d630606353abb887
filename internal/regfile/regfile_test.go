package regfile

import (
	"errors"
	"testing"
	"testing/quick"

	"regreloc/internal/isa"
)

func TestFigure1aExample(t *testing.T) {
	// Figure 1(a): 128 registers, RRM for a context of size 8 at base
	// 40; context-relative register 5 relocates to absolute register 45.
	f := New(128, ModeOR)
	f.SetRRM(40)
	abs, err := f.Relocate(5, 5) // 5-bit operands in the figure
	if err != nil || abs != 45 {
		t.Errorf("Figure 1(a): relocated to %d (err %v), want 45", abs, err)
	}
}

func TestFigure1bExample(t *testing.T) {
	// Figure 1(b): context of size 16 at base 32; context-relative
	// register 14 relocates to absolute register 46.
	f := New(128, ModeOR)
	f.SetRRM(32)
	abs, err := f.Relocate(14, 5)
	if err != nil || abs != 46 {
		t.Errorf("Figure 1(b): relocated to %d (err %v), want 46", abs, err)
	}
}

func TestRRMBits(t *testing.T) {
	// Section 2.1: the RRM register requires ceil(lg n) bits.
	for n, want := range map[int]int{32: 5, 64: 6, 128: 7, 256: 8} {
		if got := New(n, ModeOR).RRMBits(); got != want {
			t.Errorf("RRMBits(%d) = %d want %d", n, got, want)
		}
	}
}

func TestSetRRMTruncates(t *testing.T) {
	// LDRRM loads from the low-order ceil(lg n) bits only.
	f := New(128, ModeOR)
	f.SetRRM(0xffffff80 | 40)
	if f.RRM() != 40 {
		t.Errorf("RRM = %d want 40", f.RRM())
	}
}

func TestORRelocationEqualsBasePlusOffsetWhenAligned(t *testing.T) {
	// For a size-aligned base and in-bounds offset, OR == ADD. This is
	// the invariant that lets software use bases as masks.
	f := func(baseIdx, off uint8) bool {
		size := 16
		base := (int(baseIdx) % 8) * size // aligned bases in a 128 file
		offset := int(off) % size
		or := New(128, ModeOR)
		or.SetRRM(base)
		add := New(128, ModeADD)
		add.SetRRM(base)
		a, _ := or.Relocate(offset, isa.OperandBits)
		b, _ := add.Relocate(offset, isa.OperandBits)
		return a == b && a == base+offset
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestADDAllowsUnalignedContexts(t *testing.T) {
	// The Am29000-style ADD eliminates the power-of-two constraint:
	// base 20 (not 16-aligned) still relocates correctly.
	f := New(128, ModeADD)
	f.SetRRM(20)
	abs, _ := f.Relocate(12, isa.OperandBits)
	if abs != 32 {
		t.Errorf("ADD relocation = %d want 32", abs)
	}
	// OR with the same unaligned base corrupts the address (20|12 = 28,
	// not 32) — this is exactly why OR requires alignment.
	g := New(128, ModeOR)
	g.SetRRM(20)
	abs, _ = g.Relocate(12, isa.OperandBits)
	if abs != 28 {
		t.Errorf("OR relocation of unaligned base = %d want the corrupted 28", abs)
	}
}

func TestMUXEqualsORForAlignedContexts(t *testing.T) {
	f := func(baseIdx, off uint8) bool {
		size := 8
		base := (int(baseIdx) % 16) * size
		offset := int(off) % size
		or := New(128, ModeOR)
		or.SetRRM(base)
		mux := New(128, ModeMUX)
		mux.SetRRM(base)
		a, _ := or.Relocate(offset, isa.OperandBits)
		b, _ := mux.Relocate(offset, isa.OperandBits)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMUXConfinesEscapingOperands(t *testing.T) {
	// Footnote 3: MUX selection "would also prevent a thread from
	// accessing registers outside its allocated context". A context of
	// size 8 at base 40 (0b0101000): operand 13 (0b001101) overlaps the
	// mask. With OR the thread reaches register 45 of a foreign region;
	// with MUX the overlapping bit is ignored.
	or := New(128, ModeOR)
	or.SetRRM(40)
	mux := New(128, ModeMUX)
	mux.SetRRM(40)
	a, _ := or.Relocate(13, isa.OperandBits)
	b, _ := mux.Relocate(13, isa.OperandBits)
	if a != 45 {
		t.Errorf("OR escape = %d want 45", a)
	}
	if b != 45 {
		// 13 = 0b01101; mask 40 = 0b101000; operand bit 3 (value 8)
		// collides with mask bit 3. MUX keeps the mask bit: result
		// 40 | (13 &^ 40) = 40 | 0b00101 = 45. Here no collision:
		// recompute expectation directly.
		want := 40 | (13 &^ 40)
		if b != want {
			t.Errorf("MUX = %d want %d", b, want)
		}
	}
	// A real collision: operand 40 (0b101000) exactly equals mask bits.
	c, _ := mux.Relocate(40, isa.OperandBits)
	if c != 40 {
		t.Errorf("MUX with colliding operand = %d want 40 (confined)", c)
	}
	d, _ := or.Relocate(40, isa.OperandBits)
	if d != 40 {
		t.Errorf("OR with colliding operand = %d", d)
	}
}

func TestBoundedTrapsOutOfContext(t *testing.T) {
	f := New(128, ModeBounded)
	f.SetRRM(40)
	f.SetBound(8)
	if _, err := f.Relocate(7, isa.OperandBits); err != nil {
		t.Errorf("in-bounds operand trapped: %v", err)
	}
	_, err := f.Relocate(8, isa.OperandBits)
	var oc *OutOfContextError
	if !errors.As(err, &oc) {
		t.Fatalf("out-of-bounds operand not trapped (err %v)", err)
	}
	if oc.Operand != 8 || oc.Bound != 8 {
		t.Errorf("trap details %+v", oc)
	}
	if oc.Error() == "" {
		t.Error("empty error string")
	}
	// Bound 0 disables checking.
	f.SetBound(0)
	if _, err := f.Relocate(63, isa.OperandBits); err != nil {
		t.Errorf("disabled bound still trapped: %v", err)
	}
}

func TestMultiRRMSelectsSecondContext(t *testing.T) {
	// Section 5.3: the high-order operand bit selects between two RRMs,
	// permitting inter-context operations like add c0.r3, c0.r4, c1.r6.
	f := New(128, ModeOR)
	f.SetMultiRRM(true)
	// RRM0 = context at 32 (size 16), RRM1 = context at 64.
	bits := f.RRMBits()
	f.SetRRM2(32 | 64<<uint(bits))
	if f.RRM() != 32 || f.rrm[1] != 64 {
		t.Fatalf("masks = %d, %d", f.RRM(), f.rrm[1])
	}
	// Operand 6 (high bit clear) -> RRM0: register 38.
	abs, _ := f.Relocate(6, isa.OperandBits)
	if abs != 38 {
		t.Errorf("c0.r6 -> %d want 38", abs)
	}
	// Operand 32+6 (high bit set) -> RRM1: register 70.
	abs, _ = f.Relocate(32|6, isa.OperandBits)
	if abs != 70 {
		t.Errorf("c1.r6 -> %d want 70", abs)
	}
}

func TestMultiRRMOffWholeOperandUsed(t *testing.T) {
	f := New(128, ModeOR)
	f.SetRRM(0)
	abs, _ := f.Relocate(32|6, isa.OperandBits)
	if abs != 38 {
		t.Errorf("without multiRRM, operand 38 -> %d want 38", abs)
	}
}

func TestMultiRRMEmulatesRegisterWindows(t *testing.T) {
	// Section 5.3: two RRMs can emulate fixed-size overlapping register
	// windows: set RRM1 to the next window's base so "out registers"
	// (c1.*) alias the callee's "in registers".
	f := New(128, ModeOR)
	f.SetMultiRRM(true)
	bits := f.RRMBits()
	callerBase, calleeBase := 32, 48
	f.SetRRM2(callerBase | calleeBase<<uint(bits))
	// Caller writes its "out" register c1.r2; callee (RRM0 = calleeBase)
	// must see it as its own r2.
	if err := f.WriteRel(32|2, isa.OperandBits, 1234); err != nil {
		t.Fatal(err)
	}
	f.SetRRM2(calleeBase) // switch: callee's window, RRM1 unused
	got, err := f.ReadRel(2, isa.OperandBits)
	if err != nil || got != 1234 {
		t.Errorf("callee read %d (err %v) want 1234", got, err)
	}
}

func TestReadWriteRel(t *testing.T) {
	f := New(128, ModeOR)
	f.SetRRM(40)
	if err := f.WriteRel(5, isa.OperandBits, 99); err != nil {
		t.Fatal(err)
	}
	if f.Read(45) != 99 {
		t.Errorf("absolute 45 = %d", f.Read(45))
	}
	v, err := f.ReadRel(5, isa.OperandBits)
	if err != nil || v != 99 {
		t.Errorf("ReadRel = %d, %v", v, err)
	}
}

func TestContextIsolationProperty(t *testing.T) {
	// Property: with OR relocation and in-bounds operands, a context
	// never reads or writes outside [base, base+size).
	f := func(ctxIdx, op uint8) bool {
		size := 8
		base := (int(ctxIdx) % 16) * size
		operand := int(op) % size
		rf := New(128, ModeOR)
		rf.SetRRM(base)
		abs, _ := rf.Relocate(operand, isa.OperandBits)
		return abs >= base && abs < base+size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOperandPanics(t *testing.T) {
	f := New(128, ModeOR)
	for _, op := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relocate(%d) did not panic", op)
				}
			}()
			f.Relocate(op, isa.OperandBits)
		}()
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, 16, 48, 2048} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n, ModeOR)
		}()
	}
}

// TestNewPanicsOnUnknownMode: relocation treats any mode but ModeADD
// as OR, so New refuses a mode that is not one of the four.
func TestNewPanicsOnUnknownMode(t *testing.T) {
	for _, m := range []Mode{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(128, %v) did not panic", m)
				}
			}()
			New(128, m)
		}()
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeOR: "or", ModeADD: "add", ModeMUX: "mux", ModeBounded: "bounded"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if Mode(9).String() != "mode(9)" {
		t.Errorf("invalid mode String = %q", Mode(9).String())
	}
}
