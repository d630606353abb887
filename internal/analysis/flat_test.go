package analysis

import (
	"strings"
	"testing"

	"regreloc/internal/asm"
)

// Tests of the flat scan (flat.go).

func TestFlatCleanProgram(t *testing.T) {
	vs, err := FlatSource(`
		movi r1, 5
		add r2, r1, r1
		sw r2, 0(r1)
		halt
	`, FlatOptions{ContextSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("violations in clean program: %v", vs)
	}
}

func TestDetectsEscape(t *testing.T) {
	vs, err := FlatSource(`
		movi r1, 5
		add r9, r1, r1   ; r9 outside an 8-register context
	`, FlatOptions{ContextSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	v := vs[0]
	if v.Field != "rd" || v.Operand != 9 || v.Limit != 8 || v.Addr != 1 {
		t.Errorf("violation = %+v", v)
	}
	if v.Line != 3 {
		t.Errorf("line = %d want 3", v.Line)
	}
	if !strings.Contains(v.String(), "outside context") {
		t.Errorf("String = %q", v.String())
	}
}

func TestAllFieldsChecked(t *testing.T) {
	vs, err := FlatSource("add r9, r10, r11", FlatOptions{ContextSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("want 3 violations, got %v", vs)
	}
	fields := map[string]bool{}
	for _, v := range vs {
		fields[v.Field] = true
	}
	if !fields["rd"] || !fields["rs1"] || !fields["rs2"] {
		t.Errorf("fields = %v", fields)
	}
}

func TestDeadFieldsIgnored(t *testing.T) {
	// movi only uses rd; the rs fields decode as garbage from the
	// immediate and must not be flagged.
	vs, err := FlatSource("movi r1, 8191", FlatOptions{ContextSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("immediate bits flagged as registers: %v", vs)
	}
}

func TestStoreSourceChecked(t *testing.T) {
	// sw reads rd; an out-of-context store source is a leak.
	vs, err := FlatSource("sw r12, 0(r1)", FlatOptions{ContextSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Field != "rd" {
		t.Errorf("violations = %v", vs)
	}
}

func TestMultiRRMOption(t *testing.T) {
	// c1.r6 encodes as operand 38; with MultiRRM the selector bit is
	// masked and 6 is within an 8-register context.
	src := "add c0.r3, c0.r4, c1.r6"
	vs, err := FlatSource(src, FlatOptions{ContextSize: 8, MultiRRM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("multiRRM-aware check flagged %v", vs)
	}
	// Without the option the raw operand 38 violates.
	vs, _ = FlatSource(src, FlatOptions{ContextSize: 8})
	if len(vs) != 1 {
		t.Errorf("raw check found %v", vs)
	}
}

func TestRangeRestriction(t *testing.T) {
	p := asm.MustAssemble(`
		movi r20, 1   ; thread A's code (context 32)
		halt
		movi r9, 1    ; thread B's code (context 8) -- violation
		halt
	`)
	vs := Flat(p, FlatOptions{ContextSize: 8, Start: 2, End: 4})
	if len(vs) != 1 || vs[0].Addr != 2 {
		t.Errorf("ranged check = %v", vs)
	}
	// Checking only thread A's range with its own size is clean.
	if vs := Flat(p, FlatOptions{ContextSize: 32, Start: 0, End: 2}); len(vs) != 0 {
		t.Errorf("thread A flagged: %v", vs)
	}
}

func TestMaxRegister(t *testing.T) {
	p := asm.MustAssemble(`
		movi r1, 5
		add r7, r1, r3
		halt
	`)
	if got := MaxRegister(p, 0, 0); got != 8 {
		t.Errorf("MaxRegister = %d want 8", got)
	}
	// Empty range.
	if got := MaxRegister(p, 2, 3); got != 0 {
		t.Errorf("halt-only MaxRegister = %d want 0", got)
	}
}

func TestSourceAssemblyError(t *testing.T) {
	if _, err := FlatSource("bogus r1", FlatOptions{ContextSize: 8}); err == nil {
		t.Error("assembly error not propagated")
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero context size accepted")
		}
	}()
	Flat(&asm.Program{}, FlatOptions{})
}

func TestDataWordsSkipped(t *testing.T) {
	// 0xffffffff decodes with all operand fields maxed; before data
	// tracking the flat scan flagged every .word in a program.
	p := asm.MustAssemble("halt\n.word 0xffffffff\n.word 0x12345678\n")
	if vs := Flat(p, FlatOptions{ContextSize: 4}); len(vs) != 0 {
		t.Errorf("data words flagged: %v", vs)
	}
	if got := MaxRegister(p, 0, 0); got != 0 {
		t.Errorf("MaxRegister = %d, want 0", got)
	}
}

func TestPaddingSkipped(t *testing.T) {
	p := asm.MustAssemble("movi r1, 1\n.org 8\nhalt\n")
	if vs := Flat(p, FlatOptions{ContextSize: 2}); len(vs) != 0 {
		t.Errorf("padding flagged: %v", vs)
	}
}

func TestMultiRRMSelectorMasking(t *testing.T) {
	// c1.r6 is raw operand 38: under MultiRRM only the low bits are
	// checked against the context, so it passes at size 8...
	p := asm.MustAssemble("add c0.r3, c0.r4, c1.r6\nhalt\n")
	if vs := Flat(p, FlatOptions{ContextSize: 8, MultiRRM: true}); len(vs) != 0 {
		t.Errorf("multi-RRM operands flagged: %v", vs)
	}
	// ...fails at size 4 (6 >= 4)...
	vs := Flat(p, FlatOptions{ContextSize: 4, MultiRRM: true})
	if len(vs) != 2 { // c0.r4 and c1.r6
		t.Fatalf("violations = %v", vs)
	}
	// ...and without MultiRRM the raw value 38 is the operand.
	vs = Flat(p, FlatOptions{ContextSize: 8})
	if len(vs) != 1 || vs[0].Operand != 38 {
		t.Errorf("raw violations = %v", vs)
	}
}

func TestLDRRM2OperandChecked(t *testing.T) {
	// LDRRM2's rs1 is a live operand like any other.
	p := asm.MustAssemble("ldrrm2 r9\nhalt\n")
	vs := Flat(p, FlatOptions{ContextSize: 8, MultiRRM: true})
	if len(vs) != 1 || vs[0].Field != "rs1" {
		t.Errorf("violations = %v", vs)
	}
}
