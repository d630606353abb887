package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"regreloc/internal/analysis"
	"regreloc/internal/kernel"
)

// diagCase is one program of the diagnostics corpus with the options
// it is analyzed under (ContextSize is swept, not set here).
type diagCase struct {
	name string
	src  string
	opts analysis.Options
	// summaryOnly records only the summary line at the sizes strictly
	// between 0 and the flat requirement: the kernel's routines have
	// hundreds of operands, and their full reports at every size would
	// make the golden file most of a megabyte.
	summaryOnly bool
}

// diagCorpus covers the context-boundary edge cases: out-of-range rd,
// rs1 and rs2, movi immediates whose bits decode as register fields,
// store sources, data words that decode with every field maxed, .org
// padding, the Section 5.3 selector bit with and without MultiRRM,
// ldrrm2's operand, code after halt, and [Start, End) windows; then
// the example programs and every kernel lint target.
func diagCorpus(t *testing.T) []diagCase {
	multi := analysis.Options{MultiRRM: true}
	cases := []diagCase{
		{name: "clean", src: "movi r1, 5\nadd r2, r1, r1\nsw r2, 0(r1)\nhalt\n"},
		{name: "escape-rd", src: "movi r1, 5\nadd r9, r1, r1   ; r9 outside an 8-register context\n"},
		{name: "all-fields", src: "add r9, r10, r11\n"},
		{name: "movi-immediate", src: "movi r1, 8191\n"},
		{name: "store-source", src: "sw r12, 0(r1)\n"},
		{name: "selector-raw", src: "add c0.r3, c0.r4, c1.r6\nhalt\n"},
		{name: "selector-multirrm", src: "add c0.r3, c0.r4, c1.r6\nhalt\n", opts: multi},
		{name: "ldrrm2-multirrm", src: "ldrrm2 r9\nhalt\n", opts: multi},
		{name: "data-words", src: "halt\n.word 0xffffffff\n.word 0x12345678\n"},
		{name: "padding", src: "movi r1, 1\n.org 8\nhalt\n"},
		{name: "after-halt", src: "movi r1, 5\nadd r7, r1, r3\nhalt\nadd r20, r1, r1\n"},
		{name: "window-a", src: windowSrc, opts: analysis.Options{Start: 0, End: 2}},
		{name: "window-b", src: windowSrc, opts: analysis.Options{Start: 2, End: 4}},
		{name: "dead-after-halting-call", src: "user:\nmovi r4, 5\njal r5, stop\nmovi r30, 7\nhalt\nstop:\nhalt\n"},
		{name: "assembly-error", src: "movi r1, 1\nbogus r1\n"},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, diagCase{name: "example/" + filepath.Base(f), src: string(src)})
	}
	for _, target := range kernel.LintTargets() {
		cases = append(cases, diagCase{
			name:        "kernel/" + target.Name,
			src:         target.Source,
			opts:        analysis.Options{MultiRRM: target.MultiRRM},
			summaryOnly: true,
		})
	}
	return cases
}

// windowSrc holds two threads' code in one image: thread A's (a
// 32-register context) at [0, 2) and thread B's at [2, 4).
const windowSrc = "movi r20, 1\nhalt\nmovi r9, 1\nhalt\n"

// TestDiagnosticsGolden pins the analyzer's output over the corpus:
// for each program, Requirement, InferredRequirement and the flat
// requirement, then the text report at every context size from 0 (no
// boundary check) up to the flat requirement, and at size 1 with only
// the bounds or only the unreachable pass selected. For the kernel's
// routines only the summary line is kept, except at sizes 0 and the
// flat requirement.
func TestDiagnosticsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range diagCorpus(t) {
		fmt.Fprintf(&b, "== %s start=%d end=%d multiRRM=%t\n", c.name, c.opts.Start, c.opts.End, c.opts.MultiRRM)
		analyze := func(ctx int, passes analysis.Pass) (*analysis.Result, error) {
			opts := c.opts
			opts.ContextSize = ctx
			opts.Passes = passes
			opts.Interprocedural = true
			return analysis.AnalyzeSource(c.src, opts)
		}
		res, err := analyze(0, 0)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		flat := res.FlatRequirement()
		fmt.Fprintf(&b, "requirement=%d inferred=%d flat=%d\n",
			res.Requirement(), res.InferredRequirement(), flat)
		for ctx := 0; ctx <= flat || ctx <= 1; ctx++ {
			res, err := analyze(ctx, 0)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.summaryOnly && ctx > 0 && ctx < flat {
				fmt.Fprintf(&b, "-- ctx %d: %s\n", ctx, res.Summary())
				continue
			}
			fmt.Fprintf(&b, "-- ctx %d\n%s", ctx, res.Text())
		}
		for _, p := range []string{"bounds", "unreachable"} {
			res, err := analyze(1, analysis.PassByName[p])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.summaryOnly {
				fmt.Fprintf(&b, "-- ctx 1 passes=%s: %s\n", p, res.Summary())
				continue
			}
			fmt.Fprintf(&b, "-- ctx 1 passes=%s\n%s", p, res.Text())
		}
	}
	checkGolden(t, filepath.Join("testdata", "diagnostics.golden"), b.String())
}

// checkGolden compares got with the golden file at path, rewriting it
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Errorf("%s drifted at line %d (run with -update to accept):\ngot:  %s\nwant: %s", path, i+1, g[i], w[i])
			return
		}
	}
	t.Errorf("%s drifted: %d lines, want %d (run with -update to accept)", path, len(g), len(w))
}
