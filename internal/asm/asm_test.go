package asm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"regreloc/internal/isa"
)

func decode(t *testing.T, p *Program, addr int) isa.Instr {
	t.Helper()
	if addr >= len(p.Words) {
		t.Fatalf("address %d beyond program of %d words", addr, len(p.Words))
	}
	return isa.Decode(p.Words[addr])
}

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		; a tiny program
		movi r1, 5
		movi r2, 7
		add r3, r1, r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 4 {
		t.Fatalf("program length %d", len(p.Words))
	}
	in := decode(t, p, 2)
	if in.Op != isa.ADD || in.Rd != 3 || in.Rs1 != 1 || in.Rs2 != 2 {
		t.Errorf("instruction 2 = %s", isa.Disassemble(in))
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
		movi r1, 0
		movi r2, 10
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["loop"] != 2 {
		t.Fatalf("loop symbol = %d", p.Symbols["loop"])
	}
	br := decode(t, p, 3)
	if br.Op != isa.BNE || br.Imm != -1 {
		t.Errorf("branch = %s (imm %d, want -1)", isa.Disassemble(br), br.Imm)
	}
}

func TestForwardReference(t *testing.T) {
	p, err := Assemble(`
		beq r0, r0, done
		nop
		nop
	done:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	br := decode(t, p, 0)
	if br.Imm != 3 {
		t.Errorf("forward branch offset = %d want 3", br.Imm)
	}
}

func TestPaperCommentStyle(t *testing.T) {
	// The paper's Figure 3 listing uses "/" and "|" comment markers.
	p, err := Assemble(`
		/ Context-Relative Register Conventions
		| install new relocation mask
		ldrrm r2   | one delay slot
		mov r1, r2 ; trailing semicolon comment
		jmp r0     // double-slash comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 3 {
		t.Fatalf("program length %d want 3", len(p.Words))
	}
	if in := decode(t, p, 0); in.Op != isa.LDRRM || in.Rs1 != 2 {
		t.Errorf("ldrrm = %s", isa.Disassemble(in))
	}
}

func TestMovPseudo(t *testing.T) {
	p := MustAssemble("mov r5, r7")
	in := decode(t, p, 0)
	if in.Op != isa.ADDI || in.Rd != 5 || in.Rs1 != 7 || in.Imm != 0 {
		t.Errorf("mov expanded to %s", isa.Disassemble(in))
	}
}

func TestLiPseudoSmall(t *testing.T) {
	p := MustAssemble("li r1, 100")
	if len(p.Words) != 1 {
		t.Fatalf("small li used %d words", len(p.Words))
	}
	if in := decode(t, p, 0); in.Op != isa.MOVI || in.Imm != 100 {
		t.Errorf("li = %s", isa.Disassemble(in))
	}
}

func TestLiPseudoWide(t *testing.T) {
	p := MustAssemble("li r1, 0x12345\nhalt")
	if len(p.Words) != 3 {
		t.Fatalf("wide li + halt = %d words, want 3", len(p.Words))
	}
	lui := decode(t, p, 0)
	ori := decode(t, p, 1)
	if lui.Op != isa.LUI || ori.Op != isa.ORI {
		t.Fatalf("expansion = %s; %s", isa.Disassemble(lui), isa.Disassemble(ori))
	}
	got := uint32(lui.Imm)<<12 | uint32(ori.Imm)
	if got != 0x12345 {
		t.Errorf("li reconstructed %#x want 0x12345", got)
	}
}

func TestLiWideLabelOffsets(t *testing.T) {
	// A wide li shifts subsequent addresses; labels after it must
	// account for both words.
	p := MustAssemble(`
		li r1, 0x99999
	after:
		halt
	`)
	if p.Symbols["after"] != 2 {
		t.Errorf("after = %d want 2", p.Symbols["after"])
	}
}

func TestMemOperands(t *testing.T) {
	p := MustAssemble(`
		lw r1, 8(r2)
		sw r3, -4(r4)
		lw r5, (r6)
	`)
	lw := decode(t, p, 0)
	if lw.Op != isa.LW || lw.Rd != 1 || lw.Rs1 != 2 || lw.Imm != 8 {
		t.Errorf("lw = %s", isa.Disassemble(lw))
	}
	sw := decode(t, p, 1)
	if sw.Op != isa.SW || sw.Rd != 3 || sw.Rs1 != 4 || sw.Imm != -4 {
		t.Errorf("sw = %s", isa.Disassemble(sw))
	}
	if in := decode(t, p, 2); in.Imm != 0 {
		t.Errorf("bare (r6) imm = %d", in.Imm)
	}
}

func TestMultiRRMOperands(t *testing.T) {
	// Section 5.3 syntax: add c0.r3, c0.r4, c1.r6.
	p := MustAssemble("add c0.r3, c0.r4, c1.r6")
	in := decode(t, p, 0)
	if in.Rd != 3 || in.Rs1 != 4 {
		t.Errorf("c0 operands = %d, %d", in.Rd, in.Rs1)
	}
	if want := 1<<(isa.OperandBits-1) | 6; in.Rs2 != want {
		t.Errorf("c1.r6 = %d want %d", in.Rs2, want)
	}
}

func TestC1RegisterRangeHalved(t *testing.T) {
	// With the high bit used as the RRM selector, c1 registers only go
	// to 2^(w-1)-1.
	if _, err := Assemble("mov c1.r31, r0"); err != nil {
		t.Errorf("c1.r31 rejected: %v", err)
	}
	if _, err := Assemble("mov c1.r32, r0"); err == nil {
		t.Error("c1.r32 accepted")
	}
}

func TestDirectives(t *testing.T) {
	p := MustAssemble(`
		.org 4
	entry:
		halt
		.word 0xdeadbeef
	`)
	if p.Symbols["entry"] != 4 {
		t.Errorf("entry = %d", p.Symbols["entry"])
	}
	if len(p.Words) != 6 {
		t.Fatalf("length = %d", len(p.Words))
	}
	if uint32(p.Words[5]) != 0xdeadbeef {
		t.Errorf("word = %#x", uint32(p.Words[5]))
	}
	// Padding from .org decodes as nop (zero word).
	if in := decode(t, p, 0); in.Op != isa.NOP {
		t.Errorf("padding decodes as %v", in.Op)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"frobnicate r1":       "unknown instruction",
		"add r1, r2":          "takes 3 operands",
		"add r1, r2, r64":     "out of range",
		"addi r1, r2, 99999":  "out of range",
		"beq r1, r2, nowhere": "unknown target",
		"lw r1, r2":           "bad memory operand",
		"mov r1, 5":           "bad mov operands",
		".org -1":             "bad .org",
		".word":               "takes one operand",
		"dup: nop\ndup: nop":  "duplicate label",
		"9bad: nop":           "invalid label",
		"movi r1, notanumber": "bad immediate",
		"li r1, 0x100000000":  "out of 32-bit range",
	}
	for src, want := range cases {
		_, err := Assemble(src)
		if err == nil {
			t.Errorf("%q assembled without error", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not mention %q", src, err, want)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus r1\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 3 {
		t.Errorf("error line = %d want 3", aerr.Line)
	}
}

func TestSourceMap(t *testing.T) {
	p := MustAssemble("nop\n\nhalt\n")
	if p.Source[0] != 1 || p.Source[1] != 3 {
		t.Errorf("source map = %v", p.Source[:2])
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus")
}

func TestRoundTripThroughDisassembler(t *testing.T) {
	// Everything the assembler emits must disassemble and reassemble to
	// the same encoding.
	src := `
		movi r1, 5
		add r2, r1, r1
		sub r3, r2, r1
		and r4, r3, r2
		xor r5, r4, r3
		slt r6, r5, r4
		addi r7, r6, -12
		lw r8, 4(r7)
		sw r8, 8(r7)
		jalr r9, r8
		ff1 r10, r9
		rdrrm r11
		mfpsw r12
		halt
	`
	p := MustAssemble(src)
	for addr, w := range p.Words {
		in := isa.Decode(w)
		p2 := MustAssemble(isa.Disassemble(in))
		if p2.Words[0] != w {
			t.Errorf("addr %d: %s did not round-trip (%#x vs %#x)",
				addr, isa.Disassemble(in), uint32(p2.Words[0]), uint32(w))
		}
	}
}

func TestOperandErrorPaths(t *testing.T) {
	// Each format's register-parse failures must surface as assembly
	// errors, not panics.
	bad := []string{
		"add rx, r1, r2",      // RRR rd
		"add r1, rx, r2",      // RRR rs1
		"add r1, r2, rx",      // RRR rs2
		"addi rx, r1, 4",      // RRI rd
		"addi r1, rx, 4",      // RRI rs1
		"addi r1, r2, banana", // RRI imm
		"movi rx, 4",          // RI rd
		"lw rx, 0(r1)",        // Mem rd
		"lw r1, 0(rx)",        // Mem base
		"beq rx, r1, 0",       // Branch rd
		"beq r1, rx, 0",       // Branch rs1
		"beq r1, r2, где",     // Branch target
		"jal rx, 0",           // Jal rd
		"jal r1, nowhere",     // Jal target
		"jalr rx, r1",         // Jalr rd
		"jalr r1, rx",         // Jalr rs1
		"jmp rx",              // R1
		"rdrrm rx",            // RD
		"ff1 rx, r1",          // RR rd
		"ff1 r1, rx",          // RR rs1
		"li rx, 5",            // li rd
		"li r1",               // li arity
		"mov r1",              // mov arity
		"nop r1",              // arity for FormatNone
		"movi r1",             // RI arity
		"lw r1",               // Mem arity
		"beq r1, r2",          // Branch arity
		"jal r1",              // Jal arity
		"jalr r1",             // Jalr arity
		"jmp",                 // R1 arity
		"rdrrm",               // RD arity
		"ff1 r1",              // RR arity
		"sw r1, 5(r2) extra:", // trailing label junk -> parse failure
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q assembled without error", src)
		}
	}
}

func TestCommentEdgeCases(t *testing.T) {
	// A single slash mid-line is NOT a comment (only at line start or
	// as "//"); a mid-line "|" is.
	p := MustAssemble("movi r1, 5 | tail\n/ whole line\n// another\nhalt")
	if len(p.Words) != 2 {
		t.Errorf("words = %d", len(p.Words))
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	p := MustAssemble("a: b: c: halt")
	for _, l := range []string{"a", "b", "c"} {
		if p.Symbols[l] != 0 {
			t.Errorf("label %s = %d", l, p.Symbols[l])
		}
	}
}

func TestNegativeOrgAndForwardOrg(t *testing.T) {
	if _, err := Assemble(".org 4\n.org 2\nnop"); err == nil {
		t.Error("backward .org accepted")
	}
	p := MustAssemble("nop\n.org 8\nhalt")
	if len(p.Words) != 9 {
		t.Errorf("padded length = %d", len(p.Words))
	}
}

func TestOrgPastMemoryIsAnError(t *testing.T) {
	// An .org past the machine's memory names its line and builds no
	// image: assembling it allocates far less than the 1e6-word image.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Assemble(".org 1000000\nhalt\n")
	runtime.ReadMemStats(&after)
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Line != 1 {
		t.Errorf("err = %v, want an asm error on line 1", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("assembling allocated %d bytes, want under 1 MB", got)
	}
	// The image may fill memory exactly, but no statement may pass it.
	if _, err := Assemble(fmt.Sprintf(".org %d\nhalt\n", MaxWords-1)); err != nil {
		t.Errorf("image of exactly MaxWords words: %v", err)
	}
	_, err = Assemble(fmt.Sprintf("nop\n.org %d\nhalt\n", MaxWords))
	if !errors.As(err, &aerr) || aerr.Line != 3 {
		t.Errorf("err = %v, want an asm error on line 3", err)
	}
}
