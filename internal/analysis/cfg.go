package analysis

import (
	"sort"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
)

// wordKind classifies a memory word.
type wordKind uint8

const (
	// kindCode words decode as instructions.
	kindCode wordKind = iota
	// kindData words were emitted by .word directives.
	kindData
	// kindPadding words are .org gaps. They encode NOPs, so control
	// flow may traverse them, but they carry no diagnostics.
	kindPadding
)

type edge struct{ from, to int }

// cfg is the control-flow graph over the analyzed range. Nodes are
// individual words (programs are small); basic blocks are recovered
// where needed from predecessor shape.
type cfg struct {
	start, end int

	kind  []wordKind
	instr []isa.Instr
	reach []bool
	succs [][]int
	preds [][]int
	// slotOf maps a word to the address of the LDRRM/LDRRM2 whose
	// delay slot it occupies, -1 otherwise.
	slotOf []int
	// roots are the CFG entry addresses used for reachability.
	roots []int
	// intoData records control-flow edges into .word data.
	intoData []edge
}

func (c *cfg) idx(addr int) int      { return addr - c.start }
func (c *cfg) inRange(addr int) bool { return addr >= c.start && addr < c.end }

func (c *cfg) kindAt(addr int) wordKind {
	if !c.inRange(addr) {
		return kindData
	}
	return c.kind[c.idx(addr)]
}

func (c *cfg) instrAt(addr int) isa.Instr { return c.instr[c.idx(addr)] }

func (c *cfg) reachable(addr int) bool {
	return c.inRange(addr) && c.reach[c.idx(addr)]
}

// reachableCode reports whether addr is reachable and holds a real
// instruction (not padding).
func (c *cfg) reachableCode(addr int) bool {
	return c.reachable(addr) && c.kindAt(addr) == kindCode
}

func (c *cfg) slot(addr int) int {
	if !c.inRange(addr) {
		return -1
	}
	return c.slotOf[c.idx(addr)]
}

// successors returns the static successors of the instruction at a.
// Indirect transfers (jmp, and jalr's callee) have no static targets;
// jal is treated as a call, so both the target and the return point
// are successors.
func successors(a int, in isa.Instr) []int {
	switch in.Op {
	case isa.HALT, isa.JMP:
		return nil
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		return []int{a + 1, a + int(in.Imm)}
	case isa.JAL:
		return []int{a + int(in.Imm), a + 1}
	default:
		return []int{a + 1}
	}
}

func buildCFG(p *asm.Program, opts Options) *cfg {
	n := opts.End - opts.Start
	c := &cfg{
		start: opts.Start, end: opts.End,
		kind:   make([]wordKind, n),
		instr:  make([]isa.Instr, n),
		reach:  make([]bool, n),
		succs:  make([][]int, n),
		preds:  make([][]int, n),
		slotOf: make([]int, n),
	}
	for i := range c.slotOf {
		c.slotOf[i] = -1
	}
	for a := opts.Start; a < opts.End; a++ {
		i := c.idx(a)
		switch {
		case p.IsData(a):
			c.kind[i] = kindData
		case p.IsPadding(a):
			c.kind[i] = kindPadding
		}
		c.instr[i] = isa.Decode(isa.Word(p.Words[a]))
	}

	// Roots: explicit entries, or Start plus every in-range label.
	// Assembly routines are entered through their symbols (often via
	// indirect jumps the CFG cannot follow), so labels are entries.
	if opts.Entries != nil {
		c.roots = append(c.roots, opts.Entries...)
	} else {
		if c.inRange(opts.Start) && c.kindAt(opts.Start) == kindCode {
			c.roots = append(c.roots, opts.Start)
		}
		for _, a := range p.Symbols {
			if c.inRange(a) && c.kindAt(a) == kindCode {
				c.roots = append(c.roots, a)
			}
		}
		sort.Ints(c.roots)
	}

	// Reachability BFS. Padding traverses as NOPs.
	var work []int
	for _, a := range c.roots {
		if c.inRange(a) && c.kindAt(a) != kindData && !c.reach[c.idx(a)] {
			c.reach[c.idx(a)] = true
			work = append(work, a)
		}
	}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		ia := c.idx(a)
		for _, s := range successors(a, c.instr[ia]) {
			if !c.inRange(s) {
				// Edges leaving the range are calls into code analyzed
				// separately (e.g. user code calling the runtime).
				continue
			}
			if c.kindAt(s) == kindData {
				c.intoData = append(c.intoData, edge{from: a, to: s})
				continue
			}
			is := c.idx(s)
			c.succs[ia] = append(c.succs[ia], s)
			c.preds[is] = append(c.preds[is], a)
			if !c.reach[is] {
				c.reach[is] = true
				work = append(work, s)
			}
		}
	}

	// Delay-slot map: the DelaySlots instructions after each reachable
	// LDRRM/LDRRM2 still execute under the old mask.
	for a := opts.Start; a < opts.End; a++ {
		if !c.reachableCode(a) {
			continue
		}
		op := c.instrAt(a).Op
		if op != isa.LDRRM && op != isa.LDRRM2 {
			continue
		}
		for i := 1; i <= opts.DelaySlots; i++ {
			s := a + i
			if c.inRange(s) && c.kindAt(s) != kindData {
				c.slotOf[c.idx(s)] = a
			}
		}
	}
	return c
}

// isLeader reports whether addr starts a basic block: it is a root or
// has a predecessor other than the linear one.
func (c *cfg) isLeader(addr int) bool {
	for _, r := range c.roots {
		if r == addr {
			return true
		}
	}
	for _, p := range c.preds[c.idx(addr)] {
		if p != addr-1 {
			return true
		}
	}
	return false
}
