package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regreloc/internal/analysis"
)

func readExample(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func analyzeInter(t *testing.T, src string, opts analysis.Options) *analysis.Result {
	t.Helper()
	opts.Interprocedural = true
	r, err := analysis.AnalyzeSource(src, opts)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return r
}

// routineAt returns the summary of the routine entered at entry, if
// the analysis identified one there.
func routineAt(r *analysis.Result, entry int) (analysis.Routine, bool) {
	for _, rt := range r.Routines() {
		if rt.Entry == entry {
			return rt, true
		}
	}
	return analysis.Routine{}, false
}

func diagsWithCode(r *analysis.Result, code string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range r.Diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// A callee that halts never returns, so the words after the call must
// stay dead instead of artificially inflating the caller's liveness
// and requirement (regression for the jal return-path fix).
func TestHaltingCalleeKeepsPostCallDead(t *testing.T) {
	src := `
main:
	movi r4, 1
	jal r5, stop
	movi r30, 7
	halt
stop:
	halt
`
	r := analyzeInter(t, src, analysis.Options{})
	if got := r.Requirement(); got != 31 {
		t.Fatalf("intraprocedural Requirement() = %d, want 31 (movi r30 reachable)", got)
	}
	if got := r.InferredRequirement(); got != 6 {
		t.Fatalf("InferredRequirement() = %d, want 6 (post-call code dead)", got)
	}
	stop, ok := routineAt(r, 4)
	if !ok {
		t.Fatalf("no routine at addr 4 (stop)")
	}
	if stop.Returns {
		t.Errorf("stop.Returns = true, want false (it only halts)")
	}
	main, ok := routineAt(r, 0)
	if !ok {
		t.Fatalf("no routine at addr 0 (main)")
	}
	if main.Requirement != 6 {
		t.Errorf("main.Requirement = %d, want 6", main.Requirement)
	}
	if main.Size != 2 {
		t.Errorf("main.Size = %d, want 2 (movi + jal only)", main.Size)
	}
}

// The routine walk follows every path the machine takes, so the r30
// write each program executes counts toward the inferred requirement:
// a call into .org padding (executed as NOPs up to the add); a helper
// g whose jmp r5 returns through f's caller's link, past f; and a
// jalr whose register the callee h rewrote after the movi, so the
// jalr is unresolved rather than a call to the halting g.
func TestInferredRequirementCountsEveryExecutedPath(t *testing.T) {
	for name, src := range map[string]string{
		"call into padding":  "main:\nmovi r1, 7\njal r5, tgt\nhalt\ntgt:\n.org 6\nadd r30, r1, r1\njmp r5\n",
		"return past caller": "main:\njal r5, f\nmovi r30, 7\nhalt\nf:\njal r9, g\nhalt\ng:\njmp r5\n",
		"rewritten jalr register": "main:\nmovi r6, g\njal r5, h\njalr r7, r6\nmovi r30, 7\nhalt\n" +
			"g:\nhalt\nh:\nmovi r6, k\njmp r5\nk:\njmp r7\n",
	} {
		r := analyzeInter(t, src, analysis.Options{})
		if got := r.InferredRequirement(); got != 31 {
			t.Errorf("%s: InferredRequirement() = %d, want 31 (the r30 write executes)", name, got)
		}
	}
}

// A callee returning by the jmp convention keeps the caller's
// fall-through alive and contributes its own requirement.
func TestReturningCalleeFallthrough(t *testing.T) {
	src := `
main:
	movi r4, 1
	jal r5, helper
	movi r6, 7
	halt
helper:
	movi r7, 0
	jmp r5
`
	r := analyzeInter(t, src, analysis.Options{})
	helper, ok := routineAt(r, 4)
	if !ok {
		t.Fatalf("no routine at addr 4 (helper)")
	}
	if !helper.Returns {
		t.Errorf("helper.Returns = false, want true (jmp r5 is a return)")
	}
	main, _ := routineAt(r, 0)
	if main.Size != 4 {
		t.Errorf("main.Size = %d, want 4 (fall-through included)", main.Size)
	}
	if main.Requirement != 8 {
		t.Errorf("main.Requirement = %d, want 8 (callee's r7 included)", main.Requirement)
	}
	if len(main.Calls) != 1 || main.Calls[0] != 4 {
		t.Errorf("main.Calls = %v, want [4]", main.Calls)
	}
	if got := r.InferredRequirement(); got != r.Requirement() {
		t.Errorf("InferredRequirement() = %d, Requirement() = %d; want equal here", got, r.Requirement())
	}
}

func TestCallIntoDelaySlot(t *testing.T) {
	src := `
	movi r2, 0
	ldrrm r2
target:
	nop
	halt
main:
	jal r5, target
	halt
`
	r := analyzeInter(t, src, analysis.Options{})
	if got := diagsWithCode(r, analysis.CodeCallIntoSlot); len(got) != 1 {
		t.Fatalf("RR401 count = %d, want 1; diags: %v", len(got), r.Diags)
	} else if got[0].Severity != analysis.Error {
		t.Errorf("RR401 severity = %v, want error", got[0].Severity)
	}
}

func TestClobberedAcrossCall(t *testing.T) {
	src := `
main:
	movi r8, 1
	jal r5, helper
	add r9, r8, r8
	halt
helper:
	movi r8, 2
	jmp r5
`
	r := analyzeInter(t, src, analysis.Options{})
	got := diagsWithCode(r, analysis.CodeClobberedAcrossCall)
	if len(got) != 1 {
		t.Fatalf("RR402 count = %d, want 1; diags: %v", len(got), r.Diags)
	}
	if !strings.Contains(got[0].Message, "r8") {
		t.Errorf("RR402 message %q does not name r8", got[0].Message)
	}
	// The link register and the reserved indirect-live set are exempt:
	// the call itself defines the link, and R0-R3 belong to the runtime.
	if n := len(diagsWithCode(r, analysis.CodeUnresolvedCall)); n != 0 {
		t.Errorf("unexpected RR404: %v", r.Diags)
	}
}

func TestCalleeRequirementExceedsContext(t *testing.T) {
	src := `
main:
	jal r5, big
	halt
big:
	movi r20, 1
	jmp r5
`
	r := analyzeInter(t, src, analysis.Options{ContextSize: 8})
	got := diagsWithCode(r, analysis.CodeCalleeRequirement)
	if len(got) != 1 {
		t.Fatalf("RR403 count = %d, want 1; diags: %v", len(got), r.Diags)
	}
	if got[0].Severity != analysis.Error {
		t.Errorf("RR403 severity = %v, want error", got[0].Severity)
	}
}

// Helpers that only code after a halting call reaches are never
// entered, so their call sites report nothing: no RR403 for the inner
// helper's r30 at the size the live code fits.
func TestDeadCallSitesReportNothing(t *testing.T) {
	src := "main:\nmovi r4, 5\njal r5, stop\njal r6, 3\nhalt\nstop:\nhalt\n" +
		"jal r7, 2\njmp r6\nmovi r30, 1\njmp r7\n"
	r := analyzeInter(t, src, analysis.Options{ContextSize: 6})
	if got := diagsWithCode(r, analysis.CodeCalleeRequirement); len(got) != 0 {
		t.Errorf("RR403 at a dead call site: %v", got)
	}
	if _, ok := routineAt(r, 5); ok {
		t.Error("routine at addr 5 entered, though only dead code calls it")
	}
	if got := r.InferredRequirement(); got != 6 {
		t.Errorf("InferredRequirement() = %d, want 6", got)
	}
}

func TestUnresolvedJalrWorstCase(t *testing.T) {
	src := `
main:
	jalr r5, r6
	movi r9, 1
	halt
`
	r := analyzeInter(t, src, analysis.Options{})
	got := diagsWithCode(r, analysis.CodeUnresolvedCall)
	if len(got) != 1 {
		t.Fatalf("RR404 count = %d, want 1; diags: %v", len(got), r.Diags)
	}
	main, _ := routineAt(r, 0)
	if !main.Unresolved {
		t.Errorf("main.Unresolved = false, want true")
	}
	// Worst case = flat max operand over the range (r9 -> C = 10).
	if main.Requirement != 10 {
		t.Errorf("main.Requirement = %d, want 10 (worst-case summary)", main.Requirement)
	}
}

// A jalr whose target is recovered by constant tracking is a plain
// call edge: no RR404, callee summary applied.
func TestResolvedJalrIsACall(t *testing.T) {
	src := `
main:
	movi r6, helper
	jalr r5, r6
	movi r7, 1
	halt
helper:
	jmp r5
`
	r := analyzeInter(t, src, analysis.Options{})
	if n := len(diagsWithCode(r, analysis.CodeUnresolvedCall)); n != 0 {
		t.Fatalf("unexpected RR404 for resolved jalr: %v", r.Diags)
	}
	main, _ := routineAt(r, 0)
	if main.Unresolved {
		t.Errorf("main.Unresolved = true, want false")
	}
	if len(main.Calls) != 1 || main.Calls[0] != 4 {
		t.Errorf("main.Calls = %v, want [4]", main.Calls)
	}
	if main.Size != 4 {
		t.Errorf("main.Size = %d, want 4 (fall-through after resolved call)", main.Size)
	}
}

// The movi/jmp static tail-transfer is absorbed into the body rather
// than treated as a returning exit.
func TestResolvedJmpAbsorbed(t *testing.T) {
	src := `
main:
	movi r6, next
	jmp r6
next:
	movi r8, 1
	halt
`
	r := analyzeInter(t, src, analysis.Options{})
	main, _ := routineAt(r, 0)
	if main.Returns {
		t.Errorf("main.Returns = true, want false (resolved jmp is not a return)")
	}
	if main.Requirement != 9 {
		t.Errorf("main.Requirement = %d, want 9 (tail target's r8 included)", main.Requirement)
	}
}

func TestInferredRequirementFallsBackIntraprocedurally(t *testing.T) {
	src := `
main:
	movi r4, 1
	halt
`
	r, err := analysis.AnalyzeSource(src, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Routines() != nil {
		t.Errorf("Routines() should be nil without Interprocedural")
	}
	if got := r.InferredRequirement(); got != r.Requirement() {
		t.Errorf("InferredRequirement() = %d, want Requirement() = %d", got, r.Requirement())
	}
}

func TestCallGraphDOT(t *testing.T) {
	src := `
main:
	jal r5, helper
	halt
helper:
	jalr r6, r7
	jmp r5
`
	r := analyzeInter(t, src, analysis.Options{})
	dot := r.CallGraphDOT()
	for _, want := range []string{
		"digraph callgraph", `"main" -> "helper"`, `"helper" -> "?"`, "C=",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("CallGraphDOT missing %q:\n%s", want, dot)
		}
	}
}

// Interprocedural results must never exceed the intraprocedural
// requirement on example programs (the acceptance invariant the
// corpus test pins per routine).
func TestPingpongTightens(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts analysis.Options
	}{
		{"pingpong", analysis.Options{ContextSize: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := readExample(t, tc.name+".s")
			r := analyzeInter(t, src, tc.opts)
			if got, intra := r.InferredRequirement(), r.Requirement(); got > intra {
				t.Errorf("InferredRequirement() = %d > Requirement() = %d", got, intra)
			}
			if len(r.Routines()) == 0 {
				t.Errorf("no routines discovered")
			}
		})
	}
}
