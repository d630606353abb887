// Package asm implements a two-pass assembler for the register
// relocation ISA. It exists so the runtime-system code the paper
// presents as assembly — the Figure 3 context switch, the multi-entry
// context load/unload routines of Section 2.5, and the Appendix A
// allocator — can be written as actual programs and executed on the
// machine simulator, letting tests measure their cycle costs instead of
// assuming them.
//
// Syntax (one instruction or directive per line):
//
//	; comment        | comment (the paper's style) and // also work
//	label:           ; defines a symbol at the current location
//	    add r1, r2, r3
//	    addi r4, r5, -12
//	    movi r1, 100
//	    lw r1, 8(r2)
//	    beq r1, r2, loop   ; branch targets may be labels or integers
//	    mov r1, r2         ; pseudo-instruction: addi r1, r2, 0
//	    li r1, 0x12345     ; pseudo: movi, or lui+ori for wide constants
//	    c1.r6              ; multi-RRM operand (Section 5.3): selects RRM1
//	.org 64              ; set the location counter
//	.word 42             ; emit a raw data word
//
// Register operands are context-relative, exactly as the paper's
// compiler model requires (Section 2.4): code is written against
// registers 0..2^w-1 and relocated at run time.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"regreloc/internal/isa"
)

// Program is an assembled binary image.
type Program struct {
	// Words is the memory image, indexed by word address from 0.
	Words []isa.Word
	// Symbols maps labels to word addresses.
	Symbols map[string]int
	// Source maps a word address back to its source line (1-based), 0
	// for padding; used in error messages and by the static checker.
	Source []int
	// Data marks word addresses emitted by .word directives, so static
	// checkers can avoid decoding data as instructions.
	Data []bool
}

// IsData reports whether addr holds a .word datum rather than an
// instruction.
func (p *Program) IsData(addr int) bool {
	return addr >= 0 && addr < len(p.Data) && p.Data[addr]
}

// IsPadding reports whether addr is .org padding: a word no source
// statement emitted. Hand-built programs without a source map have no
// padding.
func (p *Program) IsPadding(addr int) bool {
	return len(p.Source) == len(p.Words) &&
		addr >= 0 && addr < len(p.Source) && p.Source[addr] == 0
}

// MaxWords is the size of the machine's memory in words, and so of the
// largest image: an .org or a statement past it is an assembly error.
const MaxWords = 1 << 16

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type stmt struct {
	line   int
	addr   int
	op     string
	args   []string
	isWord bool
	word   uint32
}

// Assemble assembles source text into a Program.
func Assemble(src string) (*Program, error) {
	symbols := make(map[string]int)
	var stmts []stmt
	loc := 0

	// Pass 1: tokenize, record labels and locations.
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		for {
			// Peel off leading "label:" prefixes (several may share a line).
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if !isIdent(label) {
				return nil, &Error{lineNo + 1, fmt.Sprintf("invalid label %q", label)}
			}
			if _, dup := symbols[label]; dup {
				return nil, &Error{lineNo + 1, fmt.Sprintf("duplicate label %q", label)}
			}
			symbols[label] = loc
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		fields := splitOperands(line)
		op := strings.ToLower(fields[0])
		args := fields[1:]

		switch op {
		case ".org":
			if len(args) != 1 {
				return nil, &Error{lineNo + 1, ".org takes one operand"}
			}
			v, err := parseInt(args[0])
			if err != nil || v < int64(loc) {
				return nil, &Error{lineNo + 1, fmt.Sprintf("bad .org %q", args[0])}
			}
			loc = int(v)
		case ".word":
			if len(args) != 1 {
				return nil, &Error{lineNo + 1, ".word takes one operand"}
			}
			v, err := parseInt(args[0])
			if err != nil {
				return nil, &Error{lineNo + 1, fmt.Sprintf("bad .word %q", args[0])}
			}
			stmts = append(stmts, stmt{line: lineNo + 1, addr: loc, isWord: true, word: uint32(v)})
			loc++
		case "li":
			// May expand to 1 or 2 instructions; reserve conservatively
			// by deciding now (the constant is known at parse time).
			if len(args) != 2 {
				return nil, &Error{lineNo + 1, "li takes rd, imm"}
			}
			v, err := parseInt(args[1])
			if err != nil {
				return nil, &Error{lineNo + 1, fmt.Sprintf("bad immediate %q", args[1])}
			}
			n := 1
			if v < -(1<<13) || v >= 1<<13 {
				n = 2
			}
			stmts = append(stmts, stmt{line: lineNo + 1, addr: loc, op: op, args: args})
			loc += n
		default:
			stmts = append(stmts, stmt{line: lineNo + 1, addr: loc, op: op, args: args})
			loc++
		}
		if loc > MaxWords {
			return nil, &Error{lineNo + 1, fmt.Sprintf("image passes the %d-word memory", MaxWords)}
		}
	}

	// Pass 2: encode.
	prog := &Program{
		Words:   make([]isa.Word, loc),
		Symbols: symbols,
		Source:  make([]int, loc),
		Data:    make([]bool, loc),
	}
	for _, s := range stmts {
		if s.isWord {
			prog.Words[s.addr] = isa.Word(s.word)
			prog.Source[s.addr] = s.line
			prog.Data[s.addr] = true
			continue
		}
		words, err := encodeStmt(s, symbols)
		if err != nil {
			return nil, err
		}
		for i, w := range words {
			prog.Words[s.addr+i] = w
			prog.Source[s.addr+i] = s.line
		}
	}
	return prog, nil
}

// MustAssemble assembles src and panics on error; for tests and
// embedded runtime code that is known-good.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ';', '|':
			return line[:i]
		case '/':
			// "//" comments; a single "/" at line start is also a
			// comment (the paper's listing uses "/ ...").
			if i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
			if strings.TrimSpace(line[:i]) == "" {
				return line[:i]
			}
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// splitOperands splits "op a, b, c" into ["op", "a", "b", "c"].
func splitOperands(line string) []string {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return []string{line}
	}
	out := []string{line[:i]}
	for _, f := range strings.Split(line[i+1:], ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// parseReg parses a register operand: rN, or the Section 5.3
// inter-context form cK.rN where K in {0,1} selects the RRM and sets
// the operand's high bit.
func parseReg(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	sel := 0
	if strings.HasPrefix(s, "c0.") {
		s = s[3:]
	} else if strings.HasPrefix(s, "c1.") {
		sel = 1 << (isa.OperandBits - 1)
		s = s[3:]
	}
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	max := 1<<isa.OperandBits - 1
	if sel != 0 {
		max = 1<<(isa.OperandBits-1) - 1
	}
	if n > max {
		return 0, fmt.Errorf("register %q out of range (max r%d)", s, max)
	}
	return sel | n, nil
}

// parseTarget resolves a branch/jump target: a label (absolute address
// from the symbol table, converted to a relative offset) or an integer
// literal used as the relative offset directly.
func parseTarget(s string, here int, symbols map[string]int) (int32, error) {
	if addr, ok := symbols[s]; ok {
		return int32(addr - here), nil
	}
	v, err := parseInt(s)
	if err != nil {
		return 0, fmt.Errorf("unknown target %q", s)
	}
	return int32(v), nil
}

// parseMem parses "imm(rN)" or "(rN)".
func parseMem(s string) (imm int32, reg int, err error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	if immStr := strings.TrimSpace(s[:open]); immStr != "" {
		v, err := parseInt(immStr)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
		imm = int32(v)
	}
	reg, err = parseReg(s[open+1 : close])
	return imm, reg, err
}

func encodeStmt(s stmt, symbols map[string]int) (words []isa.Word, err error) {
	fail := func(format string, args ...any) ([]isa.Word, error) {
		return nil, &Error{s.line, fmt.Sprintf(format, args...)}
	}
	defer func() {
		// isa.Encode panics on range errors; convert to assembly errors.
		if r := recover(); r != nil {
			words, err = nil, &Error{s.line, fmt.Sprint(r)}
		}
	}()

	// Pseudo-instructions first.
	switch s.op {
	case "mov":
		if len(s.args) != 2 {
			return fail("mov takes rd, rs")
		}
		rd, err1 := parseReg(s.args[0])
		rs, err2 := parseReg(s.args[1])
		if err1 != nil || err2 != nil {
			return fail("bad mov operands")
		}
		return []isa.Word{isa.Encode(isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: rs})}, nil
	case "li":
		rd, err1 := parseReg(s.args[0])
		v, err2 := parseInt(s.args[1])
		if err1 != nil || err2 != nil {
			return fail("bad li operands")
		}
		if v >= -(1<<13) && v < 1<<13 {
			return []isa.Word{isa.Encode(isa.Instr{Op: isa.MOVI, Rd: rd, Imm: int32(v)})}, nil
		}
		if v < 0 || v >= 1<<32 {
			return fail("li constant %d out of 32-bit range", v)
		}
		hi := int32(v >> 12 & (1<<20 - 1))
		lo := int32(v & 0xfff)
		return []isa.Word{
			isa.Encode(isa.Instr{Op: isa.LUI, Rd: rd, Imm: hi}),
			isa.Encode(isa.Instr{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: lo}),
		}, nil
	}

	op, ok := isa.OpByName[s.op]
	if !ok {
		return fail("unknown instruction %q", s.op)
	}
	in := isa.Instr{Op: op}
	need := func(n int) error {
		if len(s.args) != n {
			return &Error{s.line, fmt.Sprintf("%s takes %d operands, got %d", s.op, n, len(s.args))}
		}
		return nil
	}

	switch isa.FormatOf(op) {
	case isa.FormatNone:
		if err := need(0); err != nil {
			return nil, err
		}
	case isa.FormatRRR:
		if err := need(3); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		if in.Rs1, err = parseReg(s.args[1]); err != nil {
			return fail("%v", err)
		}
		if in.Rs2, err = parseReg(s.args[2]); err != nil {
			return fail("%v", err)
		}
	case isa.FormatRRI:
		if err := need(3); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		if in.Rs1, err = parseReg(s.args[1]); err != nil {
			return fail("%v", err)
		}
		v, err := parseInt(s.args[2])
		if err != nil {
			return fail("bad immediate %q", s.args[2])
		}
		in.Imm = int32(v)
	case isa.FormatRI:
		if err := need(2); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		// Labels are allowed as absolute-address immediates, so code
		// like "movi r5, schedret" can materialize runtime addresses.
		if addr, ok := symbols[s.args[1]]; ok {
			in.Imm = int32(addr)
			break
		}
		v, err := parseInt(s.args[1])
		if err != nil {
			return fail("bad immediate %q", s.args[1])
		}
		in.Imm = int32(v)
	case isa.FormatMem:
		if err := need(2); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		imm, reg, err := parseMem(s.args[1])
		if err != nil {
			return fail("%v", err)
		}
		in.Imm, in.Rs1 = imm, reg
	case isa.FormatBranch:
		if err := need(3); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		if in.Rs1, err = parseReg(s.args[1]); err != nil {
			return fail("%v", err)
		}
		off, err := parseTarget(s.args[2], s.addr, symbols)
		if err != nil {
			return fail("%v", err)
		}
		in.Imm = off
	case isa.FormatJal:
		if err := need(2); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		off, err := parseTarget(s.args[1], s.addr, symbols)
		if err != nil {
			return fail("%v", err)
		}
		in.Imm = off
	case isa.FormatJalr:
		if err := need(2); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		if in.Rs1, err = parseReg(s.args[1]); err != nil {
			return fail("%v", err)
		}
	case isa.FormatR1:
		if err := need(1); err != nil {
			return nil, err
		}
		if in.Rs1, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
	case isa.FormatRD:
		if err := need(1); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
	case isa.FormatRR:
		if err := need(2); err != nil {
			return nil, err
		}
		if in.Rd, err = parseReg(s.args[0]); err != nil {
			return fail("%v", err)
		}
		if in.Rs1, err = parseReg(s.args[1]); err != nil {
			return fail("%v", err)
		}
	}
	return []isa.Word{isa.Encode(in)}, nil
}
