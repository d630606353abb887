// Package regfile models the relocated register file at the heart of
// the paper: a large file of general registers plus the register
// relocation mask (RRM) hardware that turns context-relative operand
// numbers into absolute register numbers during instruction decode
// (Sections 2 and 2.1).
//
// Four relocation modes are provided, matching the design alternatives
// the paper discusses:
//
//   - ModeOR: the paper's mechanism: absolute = RRM | operand. A
//     single-gate-delay operation; requires contexts to be power-of-two
//     sized and aligned.
//   - ModeADD: the AMD Am29000-style base+offset (Section 4): absolute
//     = RRM + operand. More general (arbitrary context sizes) but a
//     carry chain on the critical decode path.
//   - ModeMUX: the referee's suggestion (footnote 3): each result bit is
//     selected from either the RRM or the operand by the RRM's own bits
//     (a bit is taken from the operand only where the RRM bit is zero).
//     For aligned power-of-two contexts it equals OR, and it prevents a
//     thread from reaching outside its context.
//   - ModeBounded: OR relocation plus an explicit bounds check trap,
//     the "hardware for bounds checking on contexts" alternative.
//
// The file also supports multiple active RRMs (Section 5.3): the
// high-order operand bit selects between RRM0 and RRM1, enabling
// inter-context operations such as add c0.r3, c0.r4, c1.r6.
package regfile

import (
	"fmt"
	"math"
)

// Mode selects the relocation hardware variant.
type Mode int

// Relocation modes.
const (
	ModeOR Mode = iota
	ModeADD
	ModeMUX
	ModeBounded
)

var modeNames = [...]string{"or", "add", "mux", "bounded"}

// String returns the mode name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// OutOfContextError is returned (wrapped) when bounds-checked relocation
// detects an operand outside the thread's declared context.
type OutOfContextError struct {
	Operand int // context-relative operand
	Bound   int // declared context size
}

func (e *OutOfContextError) Error() string {
	return fmt.Sprintf("regfile: operand r%d outside context of %d registers", e.Operand, e.Bound)
}

// File is a register file with relocation hardware. The zero value is
// unusable; call New.
type File struct {
	regs []uint32
	mode Mode

	// rrm holds the active relocation masks. rrm[0] is the RRM of the
	// basic mechanism; rrm[1] is the second mask of the Section 5.3
	// extension, selected by the operand's high bit when multiRRM is on.
	rrm      [2]int
	multiRRM bool

	// limit is the first operand that traps: the current context's
	// declared size in ModeBounded, and unchecked otherwise or when no
	// bound is declared. relocate compares against it in every mode.
	limit int
}

// unchecked is a limit no operand reaches.
const unchecked = math.MaxInt

// New returns a register file with n general registers (a power of two
// in [32, 1024]) using the given relocation mode.
func New(n int, mode Mode) *File {
	if n < 32 || n > 1024 || n&(n-1) != 0 {
		panic(fmt.Sprintf("regfile: invalid size %d", n))
	}
	if mode < 0 || int(mode) >= len(modeNames) {
		panic(fmt.Sprintf("regfile: unknown mode %v", mode))
	}
	return &File{regs: make([]uint32, n), mode: mode, limit: unchecked}
}

// Reset zeroes every register, both relocation masks and the bound in
// place. The mode and the multiple-RRM setting are kept.
func (f *File) Reset() {
	clear(f.regs)
	f.rrm = [2]int{}
	f.limit = unchecked
}

// Size returns the number of general registers.
func (f *File) Size() int { return len(f.regs) }

// Mode returns the relocation mode.
func (f *File) Mode() Mode { return f.mode }

// RRMBits returns ceil(lg n), the width of the RRM register
// (Section 2.1).
func (f *File) RRMBits() int {
	b := 0
	for 1<<uint(b) < len(f.regs) {
		b++
	}
	return b
}

// SetRRM installs a new register relocation mask (the LDRRM
// instruction). Only the low RRMBits bits are kept, exactly as the
// hardware loads the mask "from the low-order ceil(lg n) bits" of a
// register.
func (f *File) SetRRM(mask int) {
	f.rrm[0] = mask & (len(f.regs) - 1)
}

// RRM returns the active (primary) relocation mask.
func (f *File) RRM() int { return f.rrm[0] }

// SetRRM2 installs both relocation masks from one value (the LDRRM2
// instruction of Section 5.3): RRM0 from the low byte group, RRM1 from
// the next. Both are truncated to RRMBits bits.
func (f *File) SetRRM2(packed int) {
	bits := f.RRMBits()
	f.rrm[0] = packed & (1<<uint(bits) - 1)
	f.rrm[1] = (packed >> uint(bits)) & (1<<uint(bits) - 1)
}

// SetMultiRRM enables or disables the Section 5.3 multiple-active-
// context extension. When enabled, operand bit OperandBits-1 selects
// RRM1 and the remaining low bits are the context-relative number.
func (f *File) SetMultiRRM(on bool) { f.multiRRM = on }

// MultiRRM reports whether the multiple-RRM extension is active.
func (f *File) MultiRRM() bool { return f.multiRRM }

// SetBound declares the current context's size for ModeBounded checks;
// 0 disables checking. Other modes ignore it.
func (f *File) SetBound(size int) {
	f.limit = unchecked
	if f.mode == ModeBounded && size > 0 {
		f.limit = size
	}
}

// Relocate combines a context-relative operand with the active RRM,
// returning the absolute register number (Figure 2). operandBits is the
// operand field width w; operands must fit in it. For ModeBounded it
// returns an *OutOfContextError when the operand is outside the
// declared bound.
func (f *File) Relocate(operand, operandBits int) (int, error) {
	if operand < 0 || operand >= 1<<uint(operandBits) {
		panic(fmt.Sprintf("regfile: operand %d exceeds %d-bit field", operand, operandBits))
	}
	return f.relocate(operand, operandBits)
}

// relocate is Relocate for an operand known to fit in its
// operandBits-bit field, as every register field the machine's decode
// stage extracts does. It is small enough to inline into Relocate,
// ReadRel and WriteRel, so the machine pays one call per operand.
//
// ModeMUX takes each bit from the RRM where the RRM bit is 1 and from
// the operand where it is 0. That is mask | operand, the number OR
// gives, so the two share a path; ModeBounded ORs too, after its check.
func (f *File) relocate(operand, operandBits int) (int, error) {
	mask := f.rrm[0]
	if f.multiRRM && operand>>uint(operandBits-1) != 0 {
		mask, operand = f.rrm[1], operand&^(1<<uint(operandBits-1))
	}
	if operand >= f.limit {
		return 0, &OutOfContextError{Operand: operand, Bound: f.limit}
	}
	if f.mode == ModeADD {
		return (mask + operand) & (len(f.regs) - 1), nil
	}
	return (mask | operand) & (len(f.regs) - 1), nil
}

// Read returns the value of absolute register abs.
func (f *File) Read(abs int) uint32 { return f.regs[abs] }

// Write stores v into absolute register abs.
func (f *File) Write(abs int, v uint32) { f.regs[abs] = v }

// ReadRel relocates a context-relative operand and reads it. Unlike
// Relocate, it does not check that the operand fits in its
// operandBits-bit field.
func (f *File) ReadRel(operand, operandBits int) (uint32, error) {
	abs, err := f.relocate(operand, operandBits)
	if err != nil {
		return 0, err
	}
	return f.regs[abs], nil
}

// WriteRel relocates a context-relative operand and writes it. Unlike
// Relocate, it does not check that the operand fits in its
// operandBits-bit field.
func (f *File) WriteRel(operand, operandBits int, v uint32) error {
	abs, err := f.relocate(operand, operandBits)
	if err != nil {
		return err
	}
	f.regs[abs] = v
	return nil
}
