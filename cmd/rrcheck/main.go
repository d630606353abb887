// Command rrcheck is the static checker from paper Section 2.4, grown
// into the driver for the flow-sensitive analyzer in
// internal/analysis: CFG reachability, per-register liveness, the
// context-boundary check, LDRRM hazard detection, and the
// interprocedural call-graph passes.
//
// Usage:
//
//	rrcheck -ctx 16 file.s                      # full analysis
//	rrcheck -ctx 8 -multirrm file.s             # Section 5.3 decoding
//	rrcheck -ctx 16 -passes bounds,hazards file.s
//	rrcheck -ctx 16 -format json file.s
//	rrcheck -infer file.s                       # smallest fitting context
//	rrcheck -interproc -infer file.s            # interprocedural requirement
//	rrcheck -interproc -callgraph file.s        # call graph as Graphviz DOT
//	rrcheck -interproc -routines -ctx 16 file.s # per-routine summaries
//	rrcheck -ctx 16 -format sarif file.s        # SARIF 2.1.0 for code scanning
//	rrcheck -kernel                             # self-check the kernel asm
//	rrcheck -kernel -interproc -format sarif    # whole-kernel SARIF
//
// Exit status: 0 when no unsuppressed diagnostics are found, 1 when
// any are, 2 on usage, file, or assembly errors (assembly errors are
// reported with their source line).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"regreloc/internal/alloc"
	"regreloc/internal/analysis"
	"regreloc/internal/asm"
	"regreloc/internal/kernel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run implements the tool; it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ctx        = fs.Int("ctx", 0, "declared context size in registers")
		multi      = fs.Bool("multirrm", false, "treat the operand high bit as the RRM selector")
		infer      = fs.Bool("infer", false, "infer the smallest context the code fits in")
		passesF    = fs.String("passes", "all", "comma-separated passes: bounds,hazards,unreachable,interproc")
		format     = fs.String("format", "text", "output format: text, json, or sarif")
		delay      = fs.Int("delay", 1, "LDRRM delay slots")
		entries    = fs.String("entry", "", "comma-separated entry labels (default: every label)")
		kernelMode = fs.Bool("kernel", false, "self-check the embedded kernel assembly routines")
		interproc  = fs.Bool("interproc", false, "build the call graph and routine summaries (enables RR4xx)")
		callgraph  = fs.Bool("callgraph", false, "print the call graph as Graphviz DOT (implies -interproc)")
		routines   = fs.Bool("routines", false, "print per-routine summaries (implies -interproc)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *callgraph || *routines {
		*interproc = true
	}

	passes, err := parsePasses(*passesF)
	if err != nil {
		fmt.Fprintf(stderr, "rrcheck: %v\n", err)
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "rrcheck: unknown format %q\n", *format)
		return 2
	}

	if *kernelMode {
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		return runKernel(passes, *format, *delay, *interproc, *routines, stdout, stderr)
	}

	if fs.NArg() != 1 || (*ctx == 0 && !*infer && !*callgraph && !*routines) {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "rrcheck: %v\n", err)
		return 2
	}
	opts := analysis.Options{
		ContextSize:     *ctx,
		MultiRRM:        *multi,
		DelaySlots:      *delay,
		Passes:          passes,
		Interprocedural: *interproc,
	}
	return runFile(string(data), fs.Arg(0), opts, *infer, *callgraph, *routines, *format, *entries, stdout, stderr)
}

// runFile analyzes one source file and renders the selected output.
func runFile(src, uri string, opts analysis.Options, infer, callgraph, routines bool,
	format, entries string, stdout, stderr io.Writer) int {

	res, err := analysis.AnalyzeSource(src, opts)
	if err != nil {
		// Assembly errors carry their source line (asm: line N: ...).
		fmt.Fprintf(stderr, "rrcheck: %v\n", err)
		return 2
	}
	if entries != "" {
		res, err = analyzeWithEntries(src, opts, entries)
		if err != nil {
			fmt.Fprintf(stderr, "rrcheck: %v\n", err)
			return 2
		}
	}

	if infer {
		n := res.InferredRequirement()
		fmt.Fprintf(stdout, "highest register used: r%d (requirement C = %d, context size %d)\n",
			n-1, n, alloc.RoundContextSize(n, 4, 64))
		if opts.ContextSize == 0 && !callgraph && !routines {
			return 0
		}
	}

	if callgraph {
		fmt.Fprint(stdout, res.CallGraphDOT())
		if len(res.Diags) > 0 {
			return 1
		}
		return 0
	}
	if routines {
		printRoutines(stdout, "", res)
	}

	switch format {
	case "json":
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "rrcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	case "sarif":
		out, err := analysis.SARIF([]analysis.SARIFInput{{URI: uri, Result: res}})
		if err != nil {
			fmt.Fprintf(stderr, "rrcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	default:
		fmt.Fprint(stdout, res.Text())
	}
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}

// printRoutines renders the interprocedural summaries, one line per
// routine, prefixed when part of a multi-target run.
func printRoutines(w io.Writer, prefix string, res *analysis.Result) {
	for _, rt := range res.Routines() {
		ret := "returns"
		if !rt.Returns {
			ret = "noreturn"
		}
		extra := ""
		if rt.Unresolved {
			extra = " unresolved-call"
		}
		fmt.Fprintf(w, "%sroutine %s @%d: C = %d (local %d), %d words, %s, live-in %v%s\n",
			prefix, rt.Name, rt.Entry, rt.Requirement, rt.LocalRequirement,
			rt.Size, ret, rt.LiveIn, extra)
	}
}

// analyzeWithEntries re-analyzes with explicit CFG roots resolved from
// a comma-separated label list.
func analyzeWithEntries(src string, opts analysis.Options, labels string) (*analysis.Result, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	for _, label := range strings.Split(labels, ",") {
		label = strings.TrimSpace(label)
		addr, ok := p.Symbols[label]
		if !ok {
			return nil, fmt.Errorf("unknown entry label %q", label)
		}
		opts.Entries = append(opts.Entries, addr)
	}
	return analysis.AnalyzeSource(src, opts)
}

// runKernel self-applies the analyzer to every embedded kernel
// assembly routine group at the context size each must satisfy. With
// -format sarif the targets merge into one SARIF log whose artifact
// URIs name the embedded routine groups.
func runKernel(passes analysis.Pass, format string, delay int, interproc, routines bool,
	stdout, stderr io.Writer) int {

	status := 0
	var inputs []analysis.SARIFInput
	for _, t := range kernel.LintTargets() {
		res, err := analysis.AnalyzeSource(t.Source, analysis.Options{
			ContextSize:     t.ContextSize,
			MultiRRM:        t.MultiRRM,
			DelaySlots:      delay,
			Passes:          passes,
			Interprocedural: interproc,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rrcheck: %s: %v\n", t.Name, err)
			return 2
		}
		switch format {
		case "json":
			out, err := res.JSON()
			if err != nil {
				fmt.Fprintf(stderr, "rrcheck: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "%s\n", out)
		case "sarif":
			inputs = append(inputs, analysis.SARIFInput{URI: "kernel/" + t.Name + ".s", Result: res})
		default:
			fmt.Fprintf(stdout, "%s: %s\n", t.Name, res.Summary())
			if routines {
				printRoutines(stdout, t.Name+": ", res)
			}
			for _, d := range res.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", t.Name, d)
			}
		}
		if len(res.Diags) > 0 {
			status = 1
		}
	}
	if format == "sarif" {
		out, err := analysis.SARIF(inputs)
		if err != nil {
			fmt.Fprintf(stderr, "rrcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return status
}

func parsePasses(s string) (analysis.Pass, error) {
	var p analysis.Pass
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bit, ok := analysis.PassByName[name]
		if !ok {
			return 0, fmt.Errorf("unknown pass %q", name)
		}
		p |= bit
	}
	if p == 0 {
		p = analysis.PassAll
	}
	return p, nil
}
