package kernel

import (
	"errors"
	"strings"
	"testing"

	"regreloc/internal/asm"
)

func TestLoadUserCheckedAccepts(t *testing.T) {
	k := newKernel(t)
	p, err := k.LoadUserChecked("user:\nmovi r4, 5\nadd r5, r4, r4\nhalt\n", 8)
	if err != nil {
		t.Fatalf("LoadUserChecked: %v", err)
	}
	if _, ok := p.Symbols["user"]; !ok {
		t.Error("combined image missing user symbol")
	}
}

func TestLoadUserCheckedRejectsOverRequirement(t *testing.T) {
	k := newKernel(t)
	_, err := k.LoadUserChecked("user:\nadd r9, r4, r4\nhalt\n", 8)
	if err == nil || !strings.Contains(err.Error(), "requires") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadUserCheckedRejectsFlowIntoData(t *testing.T) {
	// The requirement fits, but execution falls into a data word: the
	// error-severity RR102 must still reject the load.
	k := newKernel(t)
	_, err := k.LoadUserChecked("user:\nmovi r4, 1\n.word 0\n", 8)
	if err == nil || !strings.Contains(err.Error(), "RR102") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnreachableUserCodeNotCharged(t *testing.T) {
	// The r20 reference after halt is dead: neither the check nor the
	// sizing charges it.
	k := newKernel(t)
	const src = "user:\nmovi r4, 1\nhalt\nadd r20, r4, r4\n"
	if _, err := k.LoadUserChecked(src, 8); err != nil {
		t.Fatalf("dead code rejected: %v", err)
	}
	req, err := k.InferUserRequirement(src)
	if err != nil {
		t.Fatal(err)
	}
	if req != 5 {
		t.Errorf("inferred requirement = %d, want 5", req)
	}
}

func TestLoadUserCheckedAtInferredSize(t *testing.T) {
	// Code after a call to a halting helper is dead only
	// interprocedurally: the r30 write itself (an RR101), or a call to
	// unlabelled helpers, the inner one writing r30 (once an RR403 at
	// the outer helper's call site). The check judges the size the
	// loader infers, so each program loads at 6 and is rejected at 5.
	for _, src := range []string{
		"user:\nmovi r4, 5\njal r5, stop\nmovi r30, 7\nhalt\nstop:\nhalt\n",
		"user:\nmovi r4, 5\njal r5, stop\njal r6, 3\nhalt\nstop:\nhalt\njal r7, 2\njmp r6\nmovi r30, 1\njmp r7\n",
	} {
		k := newKernel(t)
		req, err := k.InferUserRequirement(src)
		if err != nil || req != 6 {
			t.Fatalf("InferUserRequirement = %d, %v; want 6\n%s", req, err, src)
		}
		if _, err := k.LoadUserChecked(src, 6); err != nil {
			t.Errorf("rejected at its inferred size: %v\n%s", err, src)
		}
		_, err = k.LoadUserChecked(src, 5)
		if err == nil || !strings.Contains(err.Error(), "requires 6 registers") {
			t.Errorf("at 5: err = %v\n%s", err, src)
		}
	}
}

func TestLoadUserCheckedCountsEveryExecutedPath(t *testing.T) {
	// Each program writes r30 on a path the machine takes but the
	// interprocedural walk once dropped, so the r30 write went
	// uncounted and the program loaded at the smaller size given:
	// a call into .org padding, which executes as NOPs; a helper g
	// whose jmp r5 returns through its caller's caller's link; and a
	// jalr whose register a callee rewrote after it was set.
	for _, c := range []struct {
		src   string
		under int
	}{
		{"user:\nmovi r1, 7\njal r5, tgt\nhalt\ntgt:\n.org 1031\nadd r30, r1, r1\njmp r5\n", 6},
		{"user:\njal r5, f\nmovi r30, 7\nhalt\nf:\njal r9, g\nhalt\ng:\njmp r5\n", 10},
		{"user:\nmovi r6, g\njal r5, h\njalr r7, r6\nmovi r30, 7\nhalt\ng:\nhalt\nh:\nmovi r6, k\njmp r5\nk:\njmp r7\n", 8},
	} {
		k := newKernel(t)
		if req, err := k.InferUserRequirement(c.src); err != nil || req != 31 {
			t.Errorf("InferUserRequirement = %d, %v; want 31\n%s", req, err, c.src)
		}
		_, err := k.LoadUserChecked(c.src, c.under)
		if err == nil || !strings.Contains(err.Error(), "requires 31 registers") {
			t.Errorf("at %d: err = %v\n%s", c.under, err, c.src)
		}
	}
}

func TestLoadUserReportsUserLines(t *testing.T) {
	// A size rejection names the user's line of the first operand
	// outside the context.
	k := newKernel(t)
	_, err := k.LoadUserChecked("user:\nmovi r4, 1\nadd r9, r4, r4\nhalt\n", 8)
	const want = "requires 10 registers but the context holds 8, first outside it at line 3 (addr 1025)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to contain %q", err, want)
	}
}

func TestLoadUserCheckedReportsUserLines(t *testing.T) {
	k := newKernel(t)
	_, err := k.LoadUserChecked("user:\nmovi r4, 1\nbogus r1\nhalt\n", 8)
	var aerr *asm.Error
	if !errors.As(err, &aerr) || aerr.Line != 3 {
		t.Errorf("assembly: err = %v, want an asm error at the user's line 3", err)
	}
	_, err = k.LoadUserChecked("user:\nmovi r4, 1\n.word 0\n", 8)
	if err == nil || !strings.Contains(err.Error(), "line 2 (addr 1024)") {
		t.Errorf("diagnostic: err = %v, want it at the user's line 2", err)
	}
}

func TestLoadUserCheckedRejectsErrorDiagnostics(t *testing.T) {
	// A branch into an LDRRM delay slot is an error-severity hazard
	// even though every operand is in bounds.
	k := newKernel(t)
	src := `user:
	movi r4, 0
	movi r5, 1
	bne r5, r0, over
	ldrrm r4
over:
	nop
	halt
`
	_, err := k.LoadUserChecked(src, 8)
	if err == nil || !strings.Contains(err.Error(), "RR202") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadUserCheckedHonorsSuppressions(t *testing.T) {
	// The same hazard pinned as intentional loads fine: warnings and
	// suppressed findings do not reject.
	k := newKernel(t)
	src := `user:
	movi r4, 0
	movi r5, 1
	bne r5, r0, over ; lint:ignore RR202 exercised deliberately
	ldrrm r4
over:
	nop
	halt
`
	if _, err := k.LoadUserChecked(src, 8); err != nil {
		t.Fatalf("suppressed hazard rejected: %v", err)
	}
}

func TestLintTargetsCoverage(t *testing.T) {
	names := map[string]bool{}
	for _, target := range LintTargets() {
		names[target.Name] = true
		if target.Source == "" || target.ContextSize < 1 {
			t.Errorf("degenerate target %+v", target)
		}
	}
	for _, want := range []string{"runtime", "allocator", "manager-stubs", "worker"} {
		if !names[want] {
			t.Errorf("missing lint target %q", want)
		}
	}
}

func TestInferUserRequirement(t *testing.T) {
	k := newKernel(t)
	// Post-call code after a halting helper stays dead, so the inferred
	// requirement ignores its high register.
	src := `user:
	movi r4, 5
	jal r5, stop
	movi r30, 7
	halt
stop:
	halt
`
	req, err := k.InferUserRequirement(src)
	if err != nil {
		t.Fatalf("InferUserRequirement: %v", err)
	}
	if req != 6 {
		t.Errorf("inferred requirement = %d, want 6", req)
	}
}

func TestInferUserRequirementFloor(t *testing.T) {
	k := newKernel(t)
	req, err := k.InferUserRequirement("user:\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if req != NumReserved {
		t.Errorf("inferred requirement = %d, want the NumReserved floor %d", req, NumReserved)
	}
}
