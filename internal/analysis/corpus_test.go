package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"regreloc/internal/analysis"
	"regreloc/internal/kernel"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// exampleContexts pins the declared context size each example program
// is held to (matching selfcheck_test.go and the Makefile's lint-asm).
var exampleContexts = map[string]int{
	"fib.s":      8,
	"pingpong.s": 32,
}

// TestCorpusRequirements runs the interprocedural analyzer over every
// example program and every kernel lint target, asserting zero
// unsuppressed diagnostics and pinning each routine's inferred
// requirement in a golden file — so requirement drift shows up in
// review instead of silently loosening (or breaking) context sizing.
func TestCorpusRequirements(t *testing.T) {
	type member struct {
		name string
		src  string
		opts analysis.Options
	}
	var corpus []member

	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		base := filepath.Base(f)
		ctx, ok := exampleContexts[base]
		if !ok {
			t.Errorf("example %s has no pinned context size in exampleContexts", base)
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, member{
			name: "example/" + base,
			src:  string(src),
			opts: analysis.Options{ContextSize: ctx},
		})
	}
	for _, target := range kernel.LintTargets() {
		corpus = append(corpus, member{
			name: "kernel/" + target.Name,
			src:  target.Source,
			opts: analysis.Options{ContextSize: target.ContextSize, MultiRRM: target.MultiRRM},
		})
	}

	var b strings.Builder
	tighter := false
	for _, m := range corpus {
		opts := m.opts
		opts.Interprocedural = true
		res, err := analysis.AnalyzeSource(m.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, d := range res.Diags {
			t.Errorf("%s: unsuppressed: %s", m.name, d)
		}
		intra := res.Requirement()
		fmt.Fprintf(&b, "%s: intra C=%d inferred C=%d\n", m.name, intra, res.InferredRequirement())
		for _, rt := range res.Routines() {
			// The acceptance invariant: no routine's interprocedural
			// requirement exceeds the intraprocedural whole-range value.
			if rt.Requirement > intra {
				t.Errorf("%s: routine %s requirement %d exceeds intraprocedural %d",
					m.name, rt.Name, rt.Requirement, intra)
			}
			if strings.HasPrefix(m.name, "kernel/") && rt.Requirement < intra {
				tighter = true
			}
			fmt.Fprintf(&b, "%s: routine %-16s @%-5d C=%-3d local=%-3d size=%d\n",
				m.name, rt.Name, rt.Entry, rt.Requirement, rt.LocalRequirement, rt.Size)
		}
	}
	if !tighter {
		t.Error("no kernel routine is strictly tighter than the intraprocedural requirement")
	}

	checkGolden(t, filepath.Join("testdata", "corpus.golden"), b.String())
}
