package analysis

import (
	"fmt"
	"sort"

	"regreloc/internal/isa"
)

// callSite describes one call instruction inside a routine body.
type callSite struct {
	addr int
	// link is the register the call writes the return address to.
	link int
	// callee is the resolved target entry (meaningless when
	// unresolved).
	callee int
	// external marks a resolved target outside the analyzed range
	// (e.g. user code calling the runtime): assumed to return, its
	// requirement belongs to the other range's analysis.
	external bool
	// unresolved marks a jalr whose target constant tracking could not
	// recover; the worst-case summary applies and RR404 reports it.
	unresolved bool
}

// ipRoutine is the mutable interprocedural summary of one routine,
// grown monotonically to a fixpoint: body and calls only gain
// members, liveIn/defs/retRegs only gain bits, unresolved only flips
// to true, and the requirements only increase — so the outer
// iteration terminates.
type ipRoutine struct {
	entry  int
	body   map[int]bool
	calls  map[int]callSite
	liveIn uint64
	defs   uint64
	// retRegs are the registers the routine's returning exits jump
	// through: its own jmps that leave the body, and those of callees
	// that return past it.
	retRegs    uint64
	unresolved bool
	localReq   int
	req        int
}

// returns reports whether some path returns to a caller.
func (rt *ipRoutine) returns() bool { return rt.retRegs != 0 }

// interproc is the whole-program layer: the call graph, the resolved
// indirect-jump map, and the routine summaries.
type interproc struct {
	res *Result
	// resolved maps jmp/jalr addresses to their statically known
	// targets.
	resolved map[int]int
	routines map[int]*ipRoutine
	names    map[int]string
}

// computeInterproc starts a routine at each CFG root, padding
// included since it executes as NOPs, then iterates analyzeRoutine,
// which adds a routine for each callee it finds, until no summary
// changes. A routine that only dead code calls is never entered: its
// call sites report nothing, as dead code does not run.
func computeInterproc(r *Result) *interproc {
	ip := &interproc{
		res:      r,
		resolved: resolveIndirects(r.cfg, r.opts.Start, r.opts.End),
		routines: map[int]*ipRoutine{},
	}
	for _, root := range r.cfg.roots {
		if r.cfg.inRange(root) && r.cfg.kindAt(root) != kindData {
			ip.ensure(root)
		}
	}

	for changed := true; changed; {
		changed = false
		for _, e := range ip.sortedEntries() {
			if ip.analyzeRoutine(ip.routines[e]) {
				changed = true
			}
		}
	}
	return ip
}

func (ip *interproc) ensure(entry int) bool {
	if _, ok := ip.routines[entry]; ok {
		return false
	}
	ip.routines[entry] = &ipRoutine{
		entry: entry,
		body:  map[int]bool{},
		calls: map[int]callSite{},
	}
	return true
}

func (ip *interproc) sortedEntries() []int {
	out := make([]int, 0, len(ip.routines))
	for e := range ip.routines {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// analyzeRoutine recomputes one routine's summary against the current
// state of every other summary, reporting whether anything grew.
//
// Body traversal differs from the whole-range CFG in exactly the ways
// the intraprocedural analysis is conservative about:
//
//   - jal (and a resolved jalr) is a call edge, and the fall-through
//     to the return point exists only if the callee's current summary
//     says it returns — so a callee that only halts keeps post-call
//     code dead instead of artificially live.
//   - a jmp with a statically resolved in-range target is a direct
//     transfer absorbed into the body (the movi/jmp tail-call idiom);
//     any other jmp is this ISA's return-to-caller, a returning exit
//     through its register.
//   - a callee that returns through a register other than the call's
//     link returns past this routine, to whichever caller set that
//     register, so this routine returns through it too.
//   - halt is a non-returning exit.
func (ip *interproc) analyzeRoutine(rt *ipRoutine) bool {
	c := ip.res.cfg
	created := false
	body := map[int]bool{}
	calls := map[int]callSite{}
	var retRegs uint64
	unresolved := false

	var work []int
	push := func(a int) {
		if c.inRange(a) && c.kindAt(a) != kindData && !body[a] {
			body[a] = true
			work = append(work, a)
		}
	}
	push(rt.entry)
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if c.kindAt(a) != kindCode { // padding traverses as a NOP
			push(a + 1)
			continue
		}
		in := c.instrAt(a)
		switch in.Op {
		case isa.JAL, isa.JALR:
			t, resolved := a+int(in.Imm), true
			if in.Op == isa.JALR {
				t, resolved = ip.resolved[a], false
				if _, ok := ip.resolved[a]; ok {
					resolved = true
				}
			}
			switch {
			case !resolved:
				calls[a] = callSite{addr: a, link: in.Rd, unresolved: true}
				unresolved = true
				push(a + 1)
			case c.inRange(t) && c.kindAt(t) != kindData:
				if ip.ensure(t) {
					created = true
				}
				calls[a] = callSite{addr: a, link: in.Rd, callee: t}
				callee := ip.routines[t]
				if callee.returns() {
					push(a + 1)
				}
				retRegs |= callee.retRegs &^ bit(in.Rd)
			default:
				calls[a] = callSite{addr: a, link: in.Rd, callee: t, external: true}
				push(a + 1)
			}
		case isa.JMP:
			if t, ok := ip.resolved[a]; ok && c.inRange(t) && c.kindAt(t) != kindData {
				push(t)
			} else {
				retRegs |= bit(in.Rs1)
			}
		default:
			for _, s := range successors(a, in) {
				push(s)
			}
		}
	}

	// Per-routine backward liveness over the body, with the call-site
	// transfer: a call's live-in is the callee's live-in plus whatever
	// survives the call (the return point's live-in, if the callee
	// returns), minus the link register the call itself defines.
	indirect := indirectMask(ip.res.opts)
	addrs := make([]int, 0, len(body))
	for a := range body {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	liveAt := map[int]uint64{}
	succIn := func(s int) uint64 {
		if body[s] {
			return liveAt[s]
		}
		return 0
	}
	for changed := true; changed; {
		changed = false
		for i := len(addrs) - 1; i >= 0; i-- {
			a := addrs[i]
			var newIn uint64
			if c.kindAt(a) != kindCode {
				newIn = succIn(a + 1)
			} else {
				in := c.instrAt(a)
				use, def := useDef(in)
				if cs, isCall := calls[a]; isCall {
					if cs.unresolved || cs.external {
						newIn = use | ((succIn(a+1) | indirect) &^ def)
					} else {
						callee := ip.routines[cs.callee]
						var pass uint64
						if callee.returns() {
							pass = succIn(a + 1)
						}
						newIn = use | ((callee.liveIn | pass) &^ bit(cs.link))
					}
				} else {
					var out uint64
					switch in.Op {
					case isa.JMP:
						if t, ok := ip.resolved[a]; ok && body[t] {
							out = succIn(t)
						} else {
							out = indirect // return exit: caller state
						}
					case isa.FAULT:
						out = succIn(a+1) | indirect
					default:
						for _, s := range successors(a, in) {
							out |= succIn(s)
						}
					}
					newIn = use | (out &^ def)
				}
			}
			if newIn != liveAt[a] {
				liveAt[a] = newIn
				changed = true
			}
		}
	}

	// Fold the body into the summary.
	var defs uint64
	localMax := -1
	for _, a := range addrs {
		if c.kindAt(a) != kindCode {
			continue
		}
		in := c.instrAt(a)
		for _, f := range operandFields(in) {
			if v := contextRelative(f.value, ip.res.opts.MultiRRM); v > localMax {
				localMax = v
			}
		}
		if cs, isCall := calls[a]; isCall {
			defs |= bit(cs.link)
			if !cs.unresolved && !cs.external {
				defs |= ip.routines[cs.callee].defs
			}
			continue
		}
		_, def := useDef(in)
		defs |= def
	}
	localReq := localMax + 1
	req := localReq
	for _, cs := range calls {
		if cs.unresolved || cs.external {
			continue
		}
		if cr := ip.routines[cs.callee].req; cr > req {
			req = cr
		}
	}
	if unresolved && ip.res.flat > req {
		req = ip.res.flat // an unresolved callee may touch any code word's operands
	}

	grew := len(body) != len(rt.body) || len(calls) != len(rt.calls) ||
		liveAt[rt.entry] != rt.liveIn || defs != rt.defs ||
		retRegs != rt.retRegs || unresolved != rt.unresolved ||
		localReq != rt.localReq || req != rt.req || created
	rt.body, rt.calls = body, calls
	rt.liveIn, rt.defs = liveAt[rt.entry], defs
	rt.retRegs, rt.unresolved = retRegs, unresolved
	rt.localReq, rt.req = localReq, req
	return grew
}

// export converts an internal summary to the public Routine form.
func (ip *interproc) export(e int) Routine {
	rt := ip.routines[e]
	var callees []int
	seen := map[int]bool{}
	for _, a := range sortedKeys(rt.calls) {
		cs := rt.calls[a]
		if cs.unresolved || cs.external || seen[cs.callee] {
			continue
		}
		seen[cs.callee] = true
		callees = append(callees, cs.callee)
	}
	return Routine{
		Name:             ip.nameOf(e),
		Entry:            e,
		Requirement:      rt.req,
		LocalRequirement: rt.localReq,
		LiveIn:           regList(rt.liveIn),
		Clobbers:         regList(rt.defs),
		Returns:          rt.returns(),
		Unresolved:       rt.unresolved,
		Calls:            callees,
		Size:             len(rt.body),
	}
}

// nameOf returns the (lexicographically first) symbol naming an entry
// address, or "@addr".
func (ip *interproc) nameOf(e int) string {
	if ip.names == nil {
		ip.names = map[int]string{}
		names := make([]string, 0, len(ip.res.prog.Symbols))
		for n := range ip.res.prog.Symbols {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if _, ok := ip.names[ip.res.prog.Symbols[n]]; !ok {
				ip.names[ip.res.prog.Symbols[n]] = n
			}
		}
	}
	if n, ok := ip.names[e]; ok {
		return n
	}
	return fmt.Sprintf("@%d", e)
}

// interPass reports the RR4xx interprocedural hazards over the
// deduplicated set of call sites (a site can appear in several
// routines' bodies when code is shared).
func (r *Result) interPass() {
	ip := r.inter
	c := r.cfg
	indirect := indirectMask(r.opts)
	sites := map[int]callSite{}
	for _, e := range ip.sortedEntries() {
		for a, cs := range ip.routines[e].calls {
			sites[a] = cs
		}
	}
	addrs := make([]int, 0, len(sites))
	for a := range sites {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)

	for _, a := range addrs {
		cs := sites[a]
		if cs.unresolved {
			r.report(CodeUnresolvedCall, Warning, a,
				"jalr target is not statically resolvable; assuming the worst-case callee requirement C = %d",
				r.flat)
			continue
		}
		if cs.external {
			continue
		}
		callee := ip.routines[cs.callee]
		if s := c.slot(cs.callee); s >= 0 {
			r.report(CodeCallIntoSlot, Error, a,
				"call target %s (addr %d) is inside the %s delay slot: the callee starts under a path-dependent mask",
				ip.nameOf(cs.callee), cs.callee, c.instrAt(s).Op)
		}
		if callee.returns() {
			clobbered := r.live.liveIn(c, a+1) & callee.defs &^ (bit(cs.link) | indirect)
			for _, reg := range regList(clobbered) {
				r.report(CodeClobberedAcrossCall, Warning, a,
					"%s is live across the call to %s but may be clobbered by the callee",
					r.operandName(reg), ip.nameOf(cs.callee))
			}
		}
		if r.opts.ContextSize > 0 && callee.req > r.opts.ContextSize {
			r.report(CodeCalleeRequirement, Error, a,
				"callee %s requires a context of %d registers but the declared context is %d",
				ip.nameOf(cs.callee), callee.req, r.opts.ContextSize)
		}
	}
}
