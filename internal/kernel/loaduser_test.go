package kernel

import (
	"strings"
	"testing"
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
