package analysis

import (
	"fmt"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
)

// This file is the flat context-boundary scan — the checker paper
// Section 2.4 proposes for low-level debugging: "a separate tool could
// be used to statically check executables or object files for most
// violations of context boundaries." It is flow-insensitive: every
// word in the range that is not data or padding is decoded, reachable
// or not, and every live operand outside the declared context is
// reported. Analyze is the flow-sensitive analyzer built beside it.

// Violation is one out-of-context register reference found by Flat.
type Violation struct {
	// Addr is the word address of the offending instruction.
	Addr int
	// Line is the source line, when the program has a source map.
	Line int
	// Field names the operand field ("rd", "rs1", "rs2").
	Field string
	// Operand is the context-relative register number used.
	Operand int
	// Limit is the declared context size.
	Limit int
	// Instr is the disassembled instruction.
	Instr string
}

func (v Violation) String() string {
	loc := fmt.Sprintf("addr %d", v.Addr)
	if v.Line > 0 {
		loc = fmt.Sprintf("line %d (addr %d)", v.Line, v.Addr)
	}
	return fmt.Sprintf("%s: %s: %s operand r%d outside context of %d registers",
		loc, v.Instr, v.Field, v.Operand, v.Limit)
}

// FlatOptions configure a flat scan.
type FlatOptions struct {
	// ContextSize is the thread's declared context size in registers.
	ContextSize int
	// MultiRRM treats the operand high bit as the RRM selector
	// (Section 5.3): both halves are checked against ContextSize
	// within their respective contexts.
	MultiRRM bool
	// Start and End bound the word-address range checked; End = 0
	// means the whole program. Use this to check one thread's code in
	// a combined image.
	Start, End int
}

// Flat scans an assembled program and returns every violation found,
// in address order.
func Flat(p *asm.Program, opts FlatOptions) []Violation {
	if opts.ContextSize < 1 {
		panic("analysis: invalid context size")
	}
	var out []Violation
	scanFlat(p, opts.Start, opts.End, func(addr int, in isa.Instr) {
		for _, f := range operandFields(in) {
			if contextRelative(f.value, opts.MultiRRM) < opts.ContextSize {
				continue
			}
			line := 0
			if addr < len(p.Source) {
				line = p.Source[addr]
			}
			out = append(out, Violation{
				Addr: addr, Line: line, Field: f.name,
				Operand: f.value, Limit: opts.ContextSize,
				Instr: isa.Disassemble(in),
			})
		}
	})
	return out
}

// FlatSource assembles src and scans it; a convenience for checking
// thread code before loading.
func FlatSource(src string, opts FlatOptions) ([]Violation, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return Flat(p, opts), nil
}

// MaxRegister returns the highest raw register any live operand in
// [start, end) uses, plus one — i.e. the smallest context size the
// code fits in by the flat scan (end = 0 means the whole program). It
// is the scan's dual, useful for declaring a thread's requirement from
// its binary; Result.Requirement is the flow-sensitive answer.
func MaxRegister(p *asm.Program, start, end int) int {
	max := -1
	scanFlat(p, start, end, func(_ int, in isa.Instr) {
		for _, f := range operandFields(in) {
			if f.value > max {
				max = f.value
			}
		}
	})
	return max + 1
}

// scanFlat calls fn for every word in [start, end) that is neither
// .word data nor .org padding — decoding those produced false
// positives on any program with a data segment.
func scanFlat(p *asm.Program, start, end int, fn func(addr int, in isa.Instr)) {
	if end == 0 || end > len(p.Words) {
		end = len(p.Words)
	}
	for addr := start; addr < end; addr++ {
		if !p.IsData(addr) && !p.IsPadding(addr) {
			fn(addr, isa.Decode(p.Words[addr]))
		}
	}
}
