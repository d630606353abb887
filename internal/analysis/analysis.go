// Package analysis implements the flow-sensitive static analyzer for
// assembled register relocation programs — the "separate tool" paper
// Section 2.4 proposes for statically checking executables for
// violations of context boundaries, grown into a multi-pass framework:
//
//  1. CFG construction with reachability, so .word data and dead code
//     stop producing false positives (the flat scan, Flat, decodes
//     every word).
//  2. Backward per-register liveness dataflow, powering a
//     flow-sensitive context-boundary check and Requirement(), which
//     computes the minimal context size the code needs — the number
//     the paper says the compiler must determine for each thread.
//  3. Register relocation hazard detection: register accesses inside
//     LDRRM/LDRRM2 delay slots that observe the wrong context,
//     branches into delay slots, unpaired PSW save/restore around
//     context switches, and unaligned or overlapping RRM constants.
//  4. A diagnostics layer with severities, stable codes, source
//     positions, and text/JSON renderers, plus inline "lint:ignore"
//     suppression directives for intentional hazards (the Figure 3
//     switch deliberately writes the old context in its delay slot).
package analysis

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

// String returns the severity name.
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return severityNames[s]
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Stable diagnostic codes. The numbering groups codes by pass: RR1xx
// are context-boundary findings, RR2xx are relocation hazards, RR3xx
// come from the flat unreachable-code fallback scan.
const (
	// CodeOutOfContext: a reachable instruction's register operand is
	// outside the declared context size.
	CodeOutOfContext = "RR101"
	// CodeFlowIntoData: control flow reaches a .word data word.
	CodeFlowIntoData = "RR102"
	// CodeDelaySlotRead: a register read in an LDRRM/LDRRM2 delay slot
	// observes the old context.
	CodeDelaySlotRead = "RR201"
	// CodeBranchIntoSlot: a branch targets an LDRRM/LDRRM2 delay slot,
	// so the RRM in effect at the target depends on the path taken.
	CodeBranchIntoSlot = "RR202"
	// CodeDelaySlotWrite: a register written in a delay slot lands in
	// the old context but is live (read) after the switch commits.
	CodeDelaySlotWrite = "RR203"
	// CodeUnalignedRRM: a statically known LDRRM mask is not aligned
	// to the declared context size (OR relocation requires aligned
	// power-of-two contexts).
	CodeUnalignedRRM = "RR204"
	// CodeOverlappingRRM: two statically known LDRRM masks select
	// overlapping contexts.
	CodeOverlappingRRM = "RR205"
	// CodeUnpairedPSW: a context switch saves the PSW without
	// restoring it, or restores without saving.
	CodeUnpairedPSW = "RR206"
	// CodeUnreachable: the flat fallback scan found an out-of-context
	// operand in an unreachable word (dead code or data shadow).
	CodeUnreachable = "RR301"
	// CodeCallIntoSlot: a call (jal, or a jalr with a statically
	// resolved target) lands inside an LDRRM/LDRRM2 delay slot, so the
	// callee starts under a path-dependent relocation mask.
	CodeCallIntoSlot = "RR401"
	// CodeClobberedAcrossCall: a register live across a call site may
	// be written by the callee (registers are context-relative shared
	// state — this ISA has no callee-save convention).
	CodeClobberedAcrossCall = "RR402"
	// CodeCalleeRequirement: a callee's inferred interprocedural
	// register requirement exceeds the caller's declared context size.
	CodeCalleeRequirement = "RR403"
	// CodeUnresolvedCall: a jalr target could not be resolved by
	// constant tracking; the analyzer assumes a worst-case callee
	// summary and says so instead of silently tightening nothing.
	CodeUnresolvedCall = "RR404"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code is the stable diagnostic code (CodeOutOfContext, ...).
	Code string `json:"code"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Addr is the word address of the offending instruction.
	Addr int `json:"addr"`
	// Line is the 1-based source line, 0 when the program has no
	// source map.
	Line int `json:"line,omitempty"`
	// Instr is the disassembled instruction.
	Instr string `json:"instr,omitempty"`
	// Message describes the finding.
	Message string `json:"message"`
}

// String renders the diagnostic in the text format.
func (d Diagnostic) String() string {
	loc := fmt.Sprintf("addr %d", d.Addr)
	if d.Line > 0 {
		loc = fmt.Sprintf("line %d (addr %d)", d.Line, d.Addr)
	}
	s := fmt.Sprintf("%s: %s %s: %s", loc, d.Code, d.Severity, d.Message)
	if d.Instr != "" {
		s += fmt.Sprintf(" [%s]", d.Instr)
	}
	return s
}

// Pass selects analyzer passes. CFG construction and liveness always
// run; passes control which diagnostics are reported.
type Pass uint

// Passes.
const (
	// PassBounds is the flow-sensitive context-boundary check (RR101,
	// RR102).
	PassBounds Pass = 1 << iota
	// PassHazards is relocation hazard detection (RR201-RR206).
	PassHazards
	// PassUnreachable is the flat fallback scan over unreachable words
	// (RR301) — the flat scan's behaviour, demoted to Info.
	PassUnreachable
	// PassInterproc is the interprocedural hazard family (RR401-RR404).
	// It only fires when Options.Interprocedural builds the call-graph
	// summaries it needs.
	PassInterproc
	// PassAll runs everything.
	PassAll = PassBounds | PassHazards | PassUnreachable | PassInterproc
)

// PassByName maps the driver's -passes names to Pass bits.
var PassByName = map[string]Pass{
	"bounds":      PassBounds,
	"hazards":     PassHazards,
	"unreachable": PassUnreachable,
	"interproc":   PassInterproc,
	"all":         PassAll,
}

// Options configure an analysis.
type Options struct {
	// ContextSize is the thread's declared context size in registers;
	// 0 disables the boundary check and mask alignment checks.
	ContextSize int
	// MultiRRM treats the operand high bit as the Section 5.3 RRM
	// selector: boundary checks and Requirement() mask it off, and
	// liveness tracks c0.rN and c1.rN as distinct registers.
	MultiRRM bool
	// DelaySlots is the number of LDRRM/LDRRM2 delay slots (default 1,
	// matching machine.Config).
	DelaySlots int
	// Start and End bound the word-address range analyzed; End = 0
	// means the whole program. Control-flow edges leaving the range
	// (e.g. calls into the runtime) are dropped, not flagged.
	Start, End int
	// Entries lists CFG root addresses. nil means every symbol inside
	// the range plus Start (when Start holds code) — the right default
	// for assembly with indirect jumps, where every label is a
	// potential entry point.
	Entries []int
	// Passes selects which diagnostics to report; 0 means PassAll.
	Passes Pass
	// Suppress maps source lines to suppressed diagnostic codes ("all"
	// suppresses every code on the line). AnalyzeSource fills it from
	// "lint:ignore" comments.
	Suppress map[int][]string
	// IndirectLive lists registers assumed live at indirect jumps
	// (jmp/jalr) and FAULT traps; nil means the runtime-reserved
	// R0-R3 (PC, PSW, NextRRM, save pointer), whose values the kernel
	// reads behind the thread's back.
	IndirectLive []int
	// Interprocedural builds a call graph over the range (direct jal
	// targets; jalr/jmp resolved by constant tracking where possible),
	// computes per-routine liveness/requirement summaries to a
	// fixpoint, and enables the RR4xx pass plus the Routines /
	// InferredRequirement / CallGraphDOT accessors. Existing passes
	// and Requirement() are unaffected.
	Interprocedural bool
}

func (o Options) withDefaults(p *asm.Program) Options {
	if o.End == 0 || o.End > len(p.Words) {
		o.End = len(p.Words)
	}
	if o.Start < 0 {
		o.Start = 0
	}
	if o.Start > o.End {
		o.Start = o.End
	}
	if o.DelaySlots == 0 {
		o.DelaySlots = 1
	}
	if o.Passes == 0 {
		o.Passes = PassAll
	}
	return o
}

// Result is a completed analysis.
type Result struct {
	// Diags are the unsuppressed diagnostics, ordered by address.
	Diags []Diagnostic
	// Suppressed are diagnostics silenced by lint:ignore directives.
	Suppressed []Diagnostic

	prog  *asm.Program
	opts  Options
	cfg   *cfg
	live  *liveness
	req   int
	inter *interproc
}

// Analyze runs the analyzer over an assembled program.
func Analyze(p *asm.Program, opts Options) *Result {
	opts = opts.withDefaults(p)
	c := buildCFG(p, opts)
	r := &Result{prog: p, opts: opts, cfg: c}
	r.live = computeLiveness(c, opts)
	r.req = r.computeRequirement()

	if opts.Passes&PassBounds != 0 {
		r.boundsPass()
	}
	if opts.Passes&PassHazards != 0 {
		r.hazardPass()
	}
	if opts.Passes&PassUnreachable != 0 {
		r.unreachablePass()
	}
	if opts.Interprocedural {
		r.inter = computeInterproc(r)
		if opts.Passes&PassInterproc != 0 {
			r.interPass()
		}
	}

	sort.SliceStable(r.Diags, func(i, j int) bool {
		if r.Diags[i].Addr != r.Diags[j].Addr {
			return r.Diags[i].Addr < r.Diags[j].Addr
		}
		return r.Diags[i].Code < r.Diags[j].Code
	})
	r.applySuppressions()
	return r
}

// AnalyzeSource assembles src, extracts its lint:ignore directives,
// and analyzes the result.
func AnalyzeSource(src string, opts Options) (*Result, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	sup := ParseSuppressions(src)
	for line, codes := range opts.Suppress {
		sup[line] = append(sup[line], codes...)
	}
	opts.Suppress = sup
	return Analyze(p, opts), nil
}

// Requirement returns the minimal context size the reachable code
// needs: one more than the highest register any reachable instruction
// references (reads or writes — a dead store still needs its target
// register to exist). Under MultiRRM the selector bit is masked, so
// the requirement is per-context. Data words, padding, and dead code
// do not contribute; MaxRegister's flat scan skips only the first two.
func (r *Result) Requirement() int { return r.req }

// Reachable reports whether the word at addr is reachable code.
func (r *Result) Reachable(addr int) bool { return r.cfg.reachable(addr) }

// LiveIn returns the registers live on entry to the instruction at
// addr, as raw operand numbers (the MultiRRM selector bit kept, so
// c1.rN appears as 32+N).
func (r *Result) LiveIn(addr int) []int { return regList(r.live.liveIn(r.cfg, addr)) }

// LiveOut returns the registers live after the instruction at addr.
func (r *Result) LiveOut(addr int) []int { return regList(r.live.liveOut(r.cfg, addr)) }

// HasErrors reports whether any unsuppressed diagnostic has Error
// severity.
func (r *Result) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// report appends a diagnostic for the instruction at addr.
func (r *Result) report(code string, sev Severity, addr int, format string, args ...any) {
	r.reportAt(code, sev, addr, addr, format, args...)
}

// reportAt appends a diagnostic located at addr but described by the
// instruction at instrAddr.
func (r *Result) reportAt(code string, sev Severity, addr, instrAddr int, format string, args ...any) {
	line := 0
	if addr < len(r.prog.Source) {
		line = r.prog.Source[addr]
	}
	instr := ""
	if instrAddr >= 0 && instrAddr < len(r.prog.Words) && !r.prog.IsData(instrAddr) {
		instr = isa.Disassemble(isa.Decode(r.prog.Words[instrAddr]))
	}
	r.Diags = append(r.Diags, Diagnostic{
		Code: code, Severity: sev, Addr: addr, Line: line,
		Instr: instr, Message: fmt.Sprintf(format, args...),
	})
}

func (r *Result) applySuppressions() {
	if len(r.opts.Suppress) == 0 {
		return
	}
	kept := r.Diags[:0]
	for _, d := range r.Diags {
		if d.Line > 0 && suppressed(r.opts.Suppress[d.Line], d.Code) {
			r.Suppressed = append(r.Suppressed, d)
			continue
		}
		kept = append(kept, d)
	}
	r.Diags = kept
}

func suppressed(codes []string, code string) bool {
	for _, c := range codes {
		if c == "all" || c == code {
			return true
		}
	}
	return false
}

var suppressCode = regexp.MustCompile(`^RR[0-9]+$`)

// ParseSuppressions scans assembler source for "lint:ignore"
// directives (inside any comment style) and returns a line-to-codes
// map. "lint:ignore RR201 reason" suppresses RR201 on that line;
// "lint:ignore reason" suppresses every code on the line.
func ParseSuppressions(src string) map[int][]string {
	out := make(map[int][]string)
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, "lint:ignore")
		if idx < 0 {
			continue
		}
		var codes []string
		for _, tok := range strings.Fields(line[idx+len("lint:ignore"):]) {
			tok = strings.TrimRight(tok, ",")
			if !suppressCode.MatchString(tok) {
				break
			}
			codes = append(codes, tok)
		}
		if len(codes) == 0 {
			codes = []string{"all"}
		}
		out[i+1] = append(out[i+1], codes...)
	}
	return out
}

// selectorBit is the MultiRRM context-selector bit in operand fields.
const selectorBit = 1 << (isa.OperandBits - 1)

// operandName renders a raw operand for messages, restoring the
// Section 5.3 cK.rN syntax under MultiRRM.
func (r *Result) operandName(raw int) string {
	if r.opts.MultiRRM && raw&selectorBit != 0 {
		return fmt.Sprintf("c1.r%d", raw&^selectorBit)
	}
	return fmt.Sprintf("r%d", raw)
}

// contextRelative masks the MultiRRM selector bit when multiRRM is set.
func contextRelative(raw int, multiRRM bool) int {
	if multiRRM {
		return raw &^ selectorBit
	}
	return raw
}

// operandFields returns the semantically live operand fields of in as
// (name, raw value, isWrite) triples.
type operandField struct {
	name  string
	value int
	write bool
}

func operandFields(in isa.Instr) []operandField {
	usesRd, usesRs1, usesRs2, writesRd := isa.RegisterFields(in.Op)
	var out []operandField
	if usesRd {
		out = append(out, operandField{"rd", in.Rd, writesRd})
	}
	if usesRs1 {
		out = append(out, operandField{"rs1", in.Rs1, false})
	}
	if usesRs2 {
		out = append(out, operandField{"rs2", in.Rs2, false})
	}
	return out
}

func (r *Result) computeRequirement() int {
	max := -1
	for a := r.opts.Start; a < r.opts.End; a++ {
		if !r.cfg.reachable(a) || r.cfg.kindAt(a) != kindCode {
			continue
		}
		for _, f := range operandFields(r.cfg.instrAt(a)) {
			if v := contextRelative(f.value, r.opts.MultiRRM); v > max {
				max = v
			}
		}
	}
	return max + 1
}

// boundsPass reports RR101 for reachable out-of-context operands and
// RR102 for control flow into data words.
func (r *Result) boundsPass() {
	for _, e := range r.cfg.intoData {
		r.reportAt(CodeFlowIntoData, Error, e.from, e.from,
			"control flow reaches .word data at addr %d", e.to)
	}
	if r.opts.ContextSize < 1 {
		return
	}
	for a := r.opts.Start; a < r.opts.End; a++ {
		if !r.cfg.reachable(a) || r.cfg.kindAt(a) != kindCode {
			continue
		}
		for _, f := range operandFields(r.cfg.instrAt(a)) {
			if contextRelative(f.value, r.opts.MultiRRM) >= r.opts.ContextSize {
				r.report(CodeOutOfContext, Error, a,
					"%s operand %s outside context of %d registers",
					f.name, r.operandName(f.value), r.opts.ContextSize)
			}
		}
	}
}

// unreachablePass runs the flat scan the old checker performed, but
// only over unreachable code words, reporting findings as Info — dead
// code cannot violate a context at run time, yet usually signals a
// stale program or a wrong entry list.
func (r *Result) unreachablePass() {
	if r.opts.ContextSize < 1 {
		return
	}
	for a := r.opts.Start; a < r.opts.End; a++ {
		if r.cfg.reachable(a) || r.cfg.kindAt(a) != kindCode {
			continue
		}
		for _, f := range operandFields(r.cfg.instrAt(a)) {
			if contextRelative(f.value, r.opts.MultiRRM) >= r.opts.ContextSize {
				r.report(CodeUnreachable, Info, a,
					"unreachable word decodes with %s operand %s outside context of %d registers (flat scan)",
					f.name, r.operandName(f.value), r.opts.ContextSize)
			}
		}
	}
}

func regList(mask uint64) []int {
	var out []int
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
