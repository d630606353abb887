package analysis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// mustAnalyze assembles and analyzes src, failing the test on
// assembly errors.
func mustAnalyze(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := AnalyzeSource(src, opts)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return res
}

// codes returns the unsuppressed diagnostic codes in report order.
func codes(r *Result) []string {
	var out []string
	for _, d := range r.Diags {
		out = append(out, d.Code)
	}
	return out
}

func TestCleanProgram(t *testing.T) {
	src := `
start:
	movi r1, 10
	movi r2, 0
loop:
	addi r2, r2, 1
	bne r2, r1, loop
	halt
`
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if got := res.Requirement(); got != 3 {
		t.Errorf("Requirement = %d, want 3", got)
	}
}

func TestOutOfContextReachable(t *testing.T) {
	res := mustAnalyze(t, "add r9, r1, r1\nhalt\n", Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
	d := res.Diags[0]
	if d.Severity != Error || d.Addr != 0 || d.Line != 1 {
		t.Errorf("diagnostic = %+v", d)
	}
	if !res.HasErrors() {
		t.Error("HasErrors = false")
	}
}

func TestDataWordsProduceNoFalsePositives(t *testing.T) {
	// Both words decode as garbage instructions with huge operand
	// fields; the flat scan flagged them before it tracked data words.
	src := "halt\n.word 0x12345678\n.word 0xffffffff\n"
	res := mustAnalyze(t, src, Options{ContextSize: 4})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if res.Requirement() != 0 {
		t.Errorf("Requirement = %d, want 0 (halt references nothing)", res.Requirement())
	}
}

func TestFlowIntoData(t *testing.T) {
	res := mustAnalyze(t, "movi r1, 1\n.word 99\n", Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeFlowIntoData}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Severity != Error || d.Addr != 0 {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestUnreachableCodeDemotedToInfo(t *testing.T) {
	src := "halt\nadd r9, r1, r1\n" // no label: addr 1 is dead
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeUnreachable}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Severity != Info || d.Addr != 1 {
		t.Errorf("diagnostic = %+v", d)
	}
	if res.Reachable(1) {
		t.Error("addr 1 reported reachable")
	}
	if res.Requirement() != 0 {
		t.Errorf("Requirement = %d, want 0 (dead code excluded)", res.Requirement())
	}

	// Bounds-only analysis ignores dead code entirely.
	res = mustAnalyze(t, src, Options{ContextSize: 8, Passes: PassBounds})
	if len(res.Diags) != 0 {
		t.Fatalf("bounds-only diags = %v", res.Diags)
	}
}

func TestLabelsAreEntryPoints(t *testing.T) {
	// With a label the same trailing code is a potential entry and the
	// violation is a real Error again.
	src := "halt\nhelper:\nadd r9, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if !res.Reachable(1) {
		t.Error("labelled addr 1 not reachable")
	}
}

func TestExplicitEntriesOverrideLabels(t *testing.T) {
	src := "main:\nmovi r1, 1\nhalt\nhelper:\nadd r9, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{
		ContextSize: 8, Entries: []int{0}, Passes: PassBounds,
	})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if res.Reachable(3) {
		t.Error("helper reachable despite explicit entries")
	}
	if res.Requirement() != 2 {
		t.Errorf("Requirement = %d, want 2", res.Requirement())
	}
}

func TestRequirementCountsDeadStores(t *testing.T) {
	res := mustAnalyze(t, "movi r13, 1\nhalt\n", Options{})
	if res.Requirement() != 14 {
		t.Errorf("Requirement = %d, want 14", res.Requirement())
	}
}

func TestLiveness(t *testing.T) {
	// add r2, r1, r1 ; jmp r5 — at the indirect jump the reserved
	// registers r0-r3 are conservatively live alongside r5.
	res := mustAnalyze(t, "add r2, r1, r1\njmp r5\n", Options{})
	if got := res.LiveIn(1); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 5}) {
		t.Errorf("LiveIn(1) = %v", got)
	}
	if got := res.LiveOut(0); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 5}) {
		t.Errorf("LiveOut(0) = %v", got)
	}
	// r2 is defined at 0, so it is not live in; r1 is read.
	if got := res.LiveIn(0); !reflect.DeepEqual(got, []int{0, 1, 3, 5}) {
		t.Errorf("LiveIn(0) = %v", got)
	}
}

func TestLivenessCustomIndirectLive(t *testing.T) {
	res := mustAnalyze(t, "jmp r5\n", Options{IndirectLive: []int{0}})
	if got := res.LiveIn(0); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Errorf("LiveIn(0) = %v", got)
	}
}

func TestDelaySlotRead(t *testing.T) {
	src := "movi r2, 8\nldrrm r2\nadd r3, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeDelaySlotRead}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Severity != Warning || d.Addr != 2 ||
		!strings.Contains(d.Message, "r1") {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestDelaySlotWriteLiveAfterSwitch(t *testing.T) {
	src := "movi r2, 8\nldrrm r2\nmovi r3, 5\nadd r4, r3, r3\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeDelaySlotWrite}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Addr != 2 || !strings.Contains(d.Message, "r3") {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestDelaySlotDeadWriteAccepted(t *testing.T) {
	// The written register is never read after the switch, so the
	// old-context write is harmless scratch (the pingpong pattern).
	src := "movi r2, 8\nldrrm r2\nmovi r3, 5\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
}

func TestBranchIntoDelaySlot(t *testing.T) {
	src := `
	movi r2, 32
	movi r1, 1
	bne r1, r0, over
	ldrrm r2
over:
	nop
	halt
`
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeBranchIntoSlot}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Severity != Error || d.Addr != 2 {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestMultipleDelaySlots(t *testing.T) {
	// With two delay slots, the second instruction after LDRRM is
	// still in the shadow.
	src := "movi r2, 8\nldrrm r2\nnop\nadd r3, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8, DelaySlots: 2})
	if !reflect.DeepEqual(codes(res), []string{CodeDelaySlotRead}) {
		t.Fatalf("codes = %v", codes(res))
	}
	// With the default single slot the same read is past the commit.
	res = mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("single-slot diags = %v", res.Diags)
	}
}

func TestUnalignedRRMMask(t *testing.T) {
	src := "movi r2, 5\nldrrm r2\nnop\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeUnalignedRRM}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if d := res.Diags[0]; d.Severity != Error || !strings.Contains(d.Message, "5") {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestOverlappingRRMMasks(t *testing.T) {
	src := "movi r2, 8\nmovi r3, 12\nldrrm r2\nnop\nldrrm r3\nnop\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	got := codes(res)
	// Mask 12 is unaligned (RR204) and the pair 8/12 overlaps (RR205).
	want := map[string]bool{CodeUnalignedRRM: false, CodeOverlappingRRM: false}
	for _, c := range got {
		want[c] = true
	}
	if !want[CodeUnalignedRRM] || !want[CodeOverlappingRRM] || len(got) != 2 {
		t.Fatalf("codes = %v", got)
	}
}

func TestAlignedMasksAccepted(t *testing.T) {
	// li r2, 0 / li r3, 8: distinct aligned contexts at size 8.
	src := "movi r2, 0\nmovi r3, 8\nldrrm r2\nnop\nldrrm r3\nnop\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
}

func TestConstTrackingResetAtLeaders(t *testing.T) {
	// r2's value at the ldrrm depends on the incoming path, so no mask
	// is known and no alignment complaint is possible.
	src := `
	movi r1, 1
	movi r2, 5
	bne r1, r0, sw
	movi r2, 8
sw:
	ldrrm r2
	nop
	halt
`
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
}

func TestUnpairedPSWSave(t *testing.T) {
	src := "movi r2, 8\nldrrm r2\nmfpsw r3\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeUnpairedPSW}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if !strings.Contains(res.Diags[0].Message, "never restores") {
		t.Errorf("message = %q", res.Diags[0].Message)
	}
}

func TestUnpairedPSWRestore(t *testing.T) {
	src := "movi r2, 8\nldrrm r2\nnop\nmtpsw r3\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeUnpairedPSW}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if !strings.Contains(res.Diags[0].Message, "without saving") {
		t.Errorf("message = %q", res.Diags[0].Message)
	}
}

func TestPairedPSWAccepted(t *testing.T) {
	src := "mfpsw r3\nmovi r2, 8\nldrrm r2\nnop\nmtpsw r3\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
}

func TestPSWElidedAccepted(t *testing.T) {
	// A switch that never touches the PSW (pingpong style) is fine.
	src := "movi r2, 8\nldrrm r2\nnop\njmp r0\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
}

func TestMultiRRMOperands(t *testing.T) {
	src := "add c1.r3, c0.r1, c0.r2\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8, MultiRRM: true})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if res.Requirement() != 4 {
		t.Errorf("Requirement = %d, want 4 (selector bit masked)", res.Requirement())
	}

	// Without MultiRRM decoding, c1.r3 is raw operand 35: out of an
	// 8-register context, and the requirement balloons.
	res = mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if res.Requirement() != 36 {
		t.Errorf("Requirement = %d, want 36", res.Requirement())
	}
}

func TestMultiRRMOutOfContext(t *testing.T) {
	// The selector bit is masked before the bounds check, so c1.r9
	// is out of an 8-register context just as r9 is.
	src := "add c1.r9, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8, MultiRRM: true})
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if !strings.Contains(res.Diags[0].Message, "c1.r9") {
		t.Errorf("message = %q", res.Diags[0].Message)
	}
}

func TestLDRRM2DelaySlot(t *testing.T) {
	// LDRRM2 has the same delay-slot shadow as LDRRM; its packed
	// constant is exempt from the alignment check.
	src := "movi r2, 3\nldrrm2 r2\nadd r3, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8, MultiRRM: true})
	if !reflect.DeepEqual(codes(res), []string{CodeDelaySlotRead}) {
		t.Fatalf("codes = %v", codes(res))
	}
	if !strings.Contains(res.Diags[0].Message, "ldrrm2") {
		t.Errorf("message = %q", res.Diags[0].Message)
	}
}

func TestStartEndWindow(t *testing.T) {
	// Analysis restricted to [2, 4): the out-of-context add at 0 is
	// outside the window; the windowed code is clean.
	src := "add r9, r1, r1\nhalt\nmovi r1, 1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8, Start: 2, End: 4})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if res.Requirement() != 2 {
		t.Errorf("Requirement = %d, want 2", res.Requirement())
	}
}

func TestParseSuppressions(t *testing.T) {
	src := strings.Join([]string{
		"add r9, r1, r1 ; lint:ignore RR101 known escape",
		"nop | lint:ignore",
		"halt // lint:ignore RR201 RR203",
		"movi r1, 1",
	}, "\n")
	got := ParseSuppressions(src)
	want := map[int][]string{
		1: {"RR101"},
		2: {"all"},
		3: {"RR201", "RR203"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSuppressions = %v, want %v", got, want)
	}
}

func TestSuppressionMovesDiagnostics(t *testing.T) {
	src := "add r9, r1, r1 ; lint:ignore RR101 intentional\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if len(res.Diags) != 0 {
		t.Fatalf("diags = %v", res.Diags)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0].Code != CodeOutOfContext {
		t.Fatalf("suppressed = %v", res.Suppressed)
	}
	// A suppression for a different code does not apply.
	src = "add r9, r1, r1 ; lint:ignore RR201 wrong code\nhalt\n"
	res = mustAnalyze(t, src, Options{ContextSize: 8})
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
}

func TestJSONReport(t *testing.T) {
	res := mustAnalyze(t, "add r9, r1, r1\nhalt\n", Options{ContextSize: 8})
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requirement int `json:"requirement"`
		ContextSize int `json:"contextSize"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Addr     int    `json:"addr"`
			Line     int    `json:"line"`
		} `json:"diagnostics"`
		Suppressed int `json:"suppressed"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if rep.Requirement != 10 || rep.ContextSize != 8 || len(rep.Diagnostics) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	d := rep.Diagnostics[0]
	if d.Code != CodeOutOfContext || d.Severity != "error" || d.Addr != 0 || d.Line != 1 {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Code: CodeOutOfContext, Severity: Error, Addr: 3, Line: 7,
		Instr: "add r9, r1, r1", Message: "rd operand r9 outside context of 8 registers",
	}
	s := d.String()
	for _, frag := range []string{"line 7", "addr 3", "RR101", "error", "[add r9, r1, r1]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestPaddingTraversedAsNOP(t *testing.T) {
	// .org leaves a padding gap; execution falls straight through it.
	src := "movi r1, 1\n.org 4\nadd r9, r1, r1\nhalt\n"
	res := mustAnalyze(t, src, Options{ContextSize: 8})
	if !res.Reachable(4) {
		t.Fatal("code after padding not reachable")
	}
	if !reflect.DeepEqual(codes(res), []string{CodeOutOfContext}) {
		t.Fatalf("codes = %v", codes(res))
	}
}
