package analysis

import (
	"fmt"
	"sort"
	"strings"

	"regreloc/internal/isa"
)

// trackConstants walks [start, end) in address order maintaining the
// basic-block-local map of statically known register constants
// (movi/lui/ori/addi chains, covering the li pseudo), calling visit
// for every reachable instruction with the constants that hold *on
// entry* to it. The map is reset at block leaders, across
// data/dead-code gaps and after calls (the callee may write any
// register), so a value is only trusted when every path agrees on it
// — the same discipline the RRM mask checks use.
func trackConstants(c *cfg, start, end int, visit func(addr int, in isa.Instr, consts map[int]int64)) {
	consts := map[int]int64{}
	for a := start; a < end; a++ {
		if !c.reachableCode(a) {
			if !c.reachable(a) || c.kindAt(a) == kindData {
				consts = map[int]int64{} // gap: restart tracking
			}
			continue
		}
		if c.isLeader(a) {
			// Join point or entry: values depend on the incoming path.
			consts = map[int]int64{}
		}
		in := c.instrAt(a)
		visit(a, in, consts)
		switch in.Op {
		case isa.MOVI:
			consts[in.Rd] = int64(in.Imm)
		case isa.LUI:
			consts[in.Rd] = int64(in.Imm) << 12
		case isa.ORI:
			if v, ok := consts[in.Rs1]; ok {
				consts[in.Rd] = v | int64(uint32(in.Imm))
			} else {
				delete(consts, in.Rd)
			}
		case isa.ADDI:
			if v, ok := consts[in.Rs1]; ok {
				consts[in.Rd] = v + int64(in.Imm)
			} else {
				delete(consts, in.Rd)
			}
		case isa.JAL, isa.JALR:
			consts = map[int]int64{}
		default:
			if _, _, _, writesRd := isa.RegisterFields(in.Op); writesRd {
				delete(consts, in.Rd)
			}
		}
	}
}

// resolveIndirects returns the statically known target address of
// every jmp/jalr whose source register holds a tracked constant — the
// "movi rX, label; jmp rX" idiom the kernel's scheduler stubs and load
// prologue use. Unresolved indirections are simply absent.
func resolveIndirects(c *cfg, start, end int) map[int]int {
	out := map[int]int{}
	trackConstants(c, start, end, func(a int, in isa.Instr, consts map[int]int64) {
		switch in.Op {
		case isa.JMP, isa.JALR:
			if v, ok := consts[in.Rs1]; ok {
				out[a] = int(v)
			}
		}
	})
	return out
}

// Routine is one interprocedural routine summary: a call-graph node
// rooted at Entry, with the liveness/requirement facts propagated to a
// fixpoint across call edges.
type Routine struct {
	// Name is the routine's (first, lexicographically) symbol, or
	// "@addr" when the entry has no label.
	Name string
	// Entry is the routine's entry word address.
	Entry int
	// Requirement is the minimal context size the routine needs,
	// including every transitively called routine — the per-routine
	// number the paper says the compiler must determine.
	Requirement int
	// LocalRequirement counts only the routine's own body.
	LocalRequirement int
	// LiveIn lists the registers live on entry (the routine's
	// parameters plus state it reads before writing), callee live-ins
	// included.
	LiveIn []int
	// Clobbers lists the registers the routine (or an internal callee)
	// may write.
	Clobbers []int
	// Returns reports whether some path returns to the caller (an
	// unresolved indirect jump, by this ISA's jal/jmp convention). A
	// routine that only halts never returns, so code after a call to
	// it is dead.
	Returns bool
	// Unresolved marks a routine containing an unresolvable jalr,
	// which forces the worst-case callee summary (and an RR404).
	Unresolved bool
	// Calls lists the entry addresses of resolved in-range callees.
	Calls []int
	// Size is the number of words in the routine's body.
	Size int
}

// Routines returns the per-routine summaries, sorted by entry address.
// It is nil unless the analysis ran with Options.Interprocedural.
func (r *Result) Routines() []Routine {
	if r.inter == nil {
		return nil
	}
	out := make([]Routine, 0, len(r.inter.routines))
	for _, e := range r.inter.sortedEntries() {
		out = append(out, r.inter.export(e))
	}
	return out
}

// InferredRequirement returns the interprocedural requirement: the
// maximum over the CFG roots of each root routine's Requirement. It is
// never larger than Requirement() on the same roots — call-return
// gating (a callee that halts keeps post-call code dead) can only
// remove words — and falls back to Requirement() when the analysis was
// not interprocedural.
func (r *Result) InferredRequirement() int {
	if r.inter == nil {
		return r.req
	}
	max, found := 0, false
	for _, root := range r.cfg.roots {
		if rt, ok := r.inter.routines[root]; ok {
			found = true
			if rt.req > max {
				max = rt.req
			}
		}
	}
	if !found {
		return r.req
	}
	return max
}

// CallGraphDOT renders the interprocedural call graph in Graphviz DOT:
// one box per routine labelled with its inferred requirement, solid
// edges for resolved calls, a dashed edge to "?" for unresolved jalr
// sites, and dotted edges for calls leaving the analyzed range. Empty
// unless the analysis ran with Options.Interprocedural.
func (r *Result) CallGraphDOT() string {
	if r.inter == nil {
		return ""
	}
	ip := r.inter
	var b strings.Builder
	b.WriteString("digraph callgraph {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	needUnknown := false
	for _, e := range ip.sortedEntries() {
		rt := ip.routines[e]
		label := fmt.Sprintf("%s\\nC=%d", ip.nameOf(e), rt.req)
		if !rt.returns() {
			label += "\\n(noreturn)"
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\"];\n", ip.nameOf(e), label)
	}
	for _, e := range ip.sortedEntries() {
		rt := ip.routines[e]
		for _, a := range sortedKeys(rt.calls) {
			cs := rt.calls[a]
			switch {
			case cs.unresolved:
				needUnknown = true
				fmt.Fprintf(&b, "  %q -> \"?\" [style=dashed];\n", ip.nameOf(e))
			case cs.external:
				fmt.Fprintf(&b, "  %q -> \"@%d\" [style=dotted];\n", ip.nameOf(e), cs.callee)
			default:
				fmt.Fprintf(&b, "  %q -> %q;\n", ip.nameOf(e), ip.nameOf(cs.callee))
			}
		}
	}
	if needUnknown {
		b.WriteString("  \"?\" [shape=ellipse];\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func sortedKeys(m map[int]callSite) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
