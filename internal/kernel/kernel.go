// Package kernel implements the paper's software runtime system on the
// instruction-level machine: the Figure 3 context-switch (yield)
// routine, the Section 2.5 context load/unload routines with one entry
// point per possible register count, and a small thread manager that
// builds the circular ready ring of register relocation masks
// (Section 2.2).
//
// Register conventions (Figure 3, plus one addition):
//
//	R0: thread program counter (PC)
//	R1: processor status word (PSW)
//	R2: mask for next thread (NextRRM)
//	R3: save-area pointer (this runtime's addition; a resident
//	    context's R3 always points at its memory save area so that the
//	    unload routine's first instruction can be a store)
//
// The paper's listing reserves R0-R2; R3 is reserved here because a
// general-purpose unload routine must be able to store the target
// context's registers without first clobbering one to hold an address.
// Compilers treat R0-R3 as reserved, so threads use registers R4 and
// up — consistent with the paper's minimum context size argument
// ("large enough to maintain some state other than a program counter").
package kernel

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"regreloc/internal/alloc"
	"regreloc/internal/analysis"
	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/machine"
)

// Reserved register numbers (context-relative).
const (
	RegPC      = 0 // saved program counter
	RegPSW     = 1 // saved processor status word
	RegNextRRM = 2 // next context's relocation mask (the ready ring)
	RegSave    = 3 // save-area pointer
	// NumReserved is the count of runtime-reserved registers; threads
	// may freely use registers NumReserved..2^w-1.
	NumReserved = 4
)

// Memory layout (word addresses). Globals sit below the runtime code.
const (
	// GlobalLoadPtr holds the save-area pointer for a context being
	// loaded (written by the scheduler before entering the load routine).
	GlobalLoadPtr = 8
	// GlobalLoadEntry holds the load_entry_n address for the context
	// being loaded (written by the scheduler alongside GlobalLoadPtr).
	GlobalLoadEntry = 10
	// GlobalSchedRRM holds the RRM to re-install after an unload
	// completes (the initiating scheduler context's mask).
	GlobalSchedRRM = 9
	// RuntimeBase is where the runtime routines are assembled.
	RuntimeBase = 32
	// UserBase is where user (thread) code is loaded.
	UserBase = 1024
	// SaveAreaBase is where per-thread register save areas start; each
	// area is MaxContextSize words.
	SaveAreaBase = 8192
)

// YieldSource is the Figure 3 context-switch routine for this ISA.
// A thread transfers control with "jal r0, yield": the jal saves the
// resume PC into context-relative R0, the LDRRM installs the next
// context's mask (one delay slot, used to save the old PSW into the
// old context), the new PSW is restored, and control jumps to the new
// context's saved PC. 4 instructions + the caller's jal = 5 cycles,
// within the paper's "approximately 4 to 6 RISC cycles".
const YieldSource = `
	| Figure 3: fast software context switch.
	| Caller: jal r0, yield   (saves next PC in R0)
yield:
	ldrrm r2      | install next context's relocation mask
	mfpsw r1      | delay slot: save old PSW into OLD context's R1 (lint:ignore RR203 the Figure 3 trick)
	mtpsw r1      | restore PSW from NEW context's R1
	jmp r0        | resume NEW context at its saved PC
`

// buildUnloadSource generates the Section 2.5 context unload routine:
// stores registers 2^w-1 down to NumReserved, then the reserved
// R2/R1/R0, and the save pointer R3 last (its slot still holds the
// correct value by the R3 invariant). Entering at the instruction that
// stores register n-1 unloads exactly an n-register context. The
// routine finishes by re-installing the scheduler's RRM from a global
// and returning to the scheduler.
func buildUnloadSource() string {
	var b strings.Builder
	b.WriteString("unload:\n")
	for r := isa.MaxContextSize - 1; r >= NumReserved; r-- {
		fmt.Fprintf(&b, "unload_entry_%d:\n\tsw r%d, %d(r3)\n", r+1, r, r)
	}
	// Entry points for tiny contexts (n <= NumReserved) all alias the
	// reserved-register tail.
	for n := NumReserved; n >= 1; n-- {
		fmt.Fprintf(&b, "unload_entry_%d:\n", n)
	}
	b.WriteString("\tsw r2, 2(r3)\n\tsw r1, 1(r3)\n\tsw r0, 0(r3)\n\tsw r3, 3(r3)\n")
	// Return to the scheduler: every register of this context is now
	// saved, so r4 is free scratch. The scheduler left its own RRM in
	// GlobalSchedRRM and its return address in its OWN r5 before
	// jumping here, so after the ldrrm takes effect "jmp r5" reads the
	// scheduler context's r5.
	fmt.Fprintf(&b, "\tmovi r4, %d\n\tlw r4, 0(r4)\n", GlobalSchedRRM)
	b.WriteString("\tldrrm r4\n")
	b.WriteString("\tnop\n")    // delay slot
	b.WriteString("\tjmp r5\n") // scheduler context active: its r5
	return b.String()
}

// buildLoadSource generates the Section 2.5 context load routine. The
// scheduler stores the new thread's save-area pointer in GlobalLoadPtr
// and jumps here with the new context's RRM already installed. The
// prologue materializes the pointer into R3; entry load_entry_n then
// restores registers n-1..NumReserved, the reserved tail, and finally
// R3 itself (whose slot holds the pointer, preserving the invariant).
// The routine ends by resuming the thread at its restored PC.
func buildLoadSource() string {
	var b strings.Builder
	// Prologue: materialize the save pointer into R3, then jump to the
	// per-size entry point whose address the scheduler left in
	// GlobalLoadEntry. R0 is used as the jump scratch; it is restored
	// from the save area by the tail, so nothing is lost.
	b.WriteString("load:\n")
	fmt.Fprintf(&b, "\tmovi r3, %d\n\tlw r3, 0(r3)\n", GlobalLoadPtr)
	fmt.Fprintf(&b, "\tmovi r0, %d\n\tlw r0, 0(r0)\n\tjmp r0\n", GlobalLoadEntry)
	for r := isa.MaxContextSize - 1; r >= NumReserved; r-- {
		fmt.Fprintf(&b, "load_entry_%d:\n\tlw r%d, %d(r3)\n", r+1, r, r)
	}
	for n := NumReserved; n >= 1; n-- {
		fmt.Fprintf(&b, "load_entry_%d:\n", n)
	}
	b.WriteString("\tlw r2, 2(r3)\n\tlw r1, 1(r3)\n\tmtpsw r1\n\tlw r0, 0(r3)\n\tlw r3, 3(r3)\n")
	b.WriteString("\tjmp r0\n") // resume the thread
	return b.String()
}

// RuntimeSource returns the full runtime assembly: yield, unload, and
// load routines, assembled together at RuntimeBase.
func RuntimeSource() string {
	return fmt.Sprintf(".org %d\n%s\n%s\n%s", RuntimeBase, YieldSource, buildUnloadSource(), buildLoadSource())
}

// Thread is a kernel-managed thread with a resident context.
type Thread struct {
	Name string
	Ctx  alloc.Context
	// Regs is the number of registers the thread requires (C), as the
	// compiler reports per Section 2.4. Load/unload cost depends on
	// this, not on Ctx.Size.
	Regs int
	// SaveArea is the word address of the thread's register save area.
	SaveArea int
}

// Kernel manages threads, contexts, and the ready ring on one machine.
type Kernel struct {
	M       *machine.Machine
	Alloc   alloc.Allocator
	Runtime *asm.Program

	threads  []*Thread
	saveNext int
}

// New assembles the runtime into the machine and returns a kernel.
func New(m *machine.Machine, a alloc.Allocator) *Kernel {
	rt := asm.MustAssemble(RuntimeSource())
	m.Load(rt, 0)
	return &Kernel{M: m, Alloc: a, Runtime: rt, saveNext: SaveAreaBase}
}

// userPrefix is kernel assembly placed in front of user code, ending
// in ".org UserBase" so that the user code lands at UserBase and can
// name the prefix's symbols. lines counts the prefix's lines, so that
// errors and diagnostics name the user's own lines.
type userPrefix struct {
	text  string
	lines int
}

func newUserPrefix(parts ...string) userPrefix {
	text := fmt.Sprintf("%s\n.org %d\n", strings.Join(parts, "\n"), UserBase)
	return userPrefix{text: text, lines: strings.Count(text, "\n")}
}

// runtimePrefix is what LoadUserChecked assembles in front of user
// code, built on first use.
var runtimePrefix = sync.OnceValue(func() userPrefix { return newUserPrefix(RuntimeSource()) })

// analyze assembles src at UserBase behind the prefix and runs the
// interprocedural analyzer with opts over the user region (from
// UserBase on), honoring the user's lint:ignore directives. It returns
// the combined image with the result; errors and diagnostics name
// lines of src.
func (p userPrefix) analyze(src string, opts analysis.Options) (*asm.Program, *analysis.Result, error) {
	text := p.text + src
	prog, err := asm.Assemble(text)
	if err != nil {
		var aerr *asm.Error
		if errors.As(err, &aerr) && aerr.Line > p.lines {
			err = &asm.Error{Line: aerr.Line - p.lines, Msg: aerr.Msg}
		}
		return nil, nil, err
	}
	opts.Start = UserBase
	opts.Suppress = analysis.ParseSuppressions(text)
	opts.Interprocedural = true
	res := analysis.Analyze(prog, opts)
	// Suppressions have matched combined lines by now.
	for _, ds := range [][]analysis.Diagnostic{res.Diags, res.Suppressed} {
		for i := range ds {
			if ds[i].Line > p.lines {
				ds[i].Line -= p.lines
			}
		}
	}
	return prog, res, nil
}

// load is paper Section 2.4's load-time check, the one rule every
// load of user code passes. src is assembled behind the prefix and
// rejected when the requirement InferUserRequirement infers exceeds
// opts.ContextSize, so code is never too big for the size the loader
// infers, or when any error-severity diagnostic other than an
// out-of-context operand is found: control flow into data, a branch or
// call into an LDRRM delay slot, an unaligned relocation mask. An
// out-of-context operand left after the size check is on code the
// interprocedural analysis proves dead. It returns the combined image.
func (p userPrefix) load(src string, opts analysis.Options) (*asm.Program, error) {
	prog, res, err := p.analyze(src, opts)
	if err != nil {
		return nil, err
	}
	if req := res.InferredRequirement(); req > opts.ContextSize {
		where := ""
		for _, d := range res.Diags {
			if d.Code == analysis.CodeOutOfContext {
				where = fmt.Sprintf(", first outside it at %s", d)
				break
			}
		}
		return nil, fmt.Errorf("kernel: user code requires %d registers but the context holds %d%s",
			req, opts.ContextSize, where)
	}
	for _, d := range res.Diags {
		if d.Severity == analysis.Error && d.Code != analysis.CodeOutOfContext {
			return nil, fmt.Errorf("kernel: user code rejected: %s", d)
		}
	}
	return prog, nil
}

// userOptions are the analyzer options for user code in a
// ctxSize-register context on k's machine: its relocation settings
// decide how operands decode.
func (k *Kernel) userOptions(ctxSize int) analysis.Options {
	cfg := k.M.Config()
	return analysis.Options{ContextSize: ctxSize, MultiRRM: cfg.MultiRRM, DelaySlots: cfg.LDRRMDelaySlots}
}

// LoadUserChecked loads user (thread) code for threads of ctxSize
// registers, assembled together with the runtime so that it can name
// the runtime symbols (yield, load_entry_n, unload_entry_n) directly,
// e.g. "jal r0, yield" for the Figure 3 switch. The code must pass the
// loader's check first (paper Section 2.4; see userPrefix.load). The
// user source is placed at UserBase; the combined image replaces the
// runtime image and symbol table. lint:ignore directives in the user
// source suppress intentional hazards; errors and diagnostics name
// lines of src.
func (k *Kernel) LoadUserChecked(src string, ctxSize int) (*asm.Program, error) {
	prog, err := runtimePrefix().load(src, k.userOptions(ctxSize))
	if err != nil {
		return nil, err
	}
	k.M.Load(prog, 0)
	k.Runtime = prog
	return prog, nil
}

// InferUserRequirement returns the interprocedural register
// requirement of user code: the smallest context the analyzer proves
// sufficient, never below NumReserved since the runtime reads R0-R3
// behind the thread's back.
func (k *Kernel) InferUserRequirement(src string) (int, error) {
	_, res, err := runtimePrefix().analyze(src, k.userOptions(0))
	if err != nil {
		return 0, err
	}
	req := res.InferredRequirement()
	if req < NumReserved {
		req = NumReserved
	}
	return req, nil
}

// YieldAddr returns the address of the yield routine.
func (k *Kernel) YieldAddr() int { return k.Runtime.Symbols["yield"] }

// Spawn allocates a context for a thread requiring regs registers,
// whose code starts at entryPC, and initializes its resident state
// (R0 = entryPC, R3 = save-area pointer). It returns the thread. The
// ready ring is not linked until Link is called.
func (k *Kernel) Spawn(name string, entryPC, regs int) (*Thread, error) {
	if regs < NumReserved {
		regs = NumReserved
	}
	ctx, ok := k.Alloc.Alloc(regs)
	if !ok {
		return nil, fmt.Errorf("kernel: no free context for %q (%d registers)", name, regs)
	}
	t := &Thread{Name: name, Ctx: ctx, Regs: regs, SaveArea: k.saveNext}
	k.saveNext += isa.MaxContextSize
	base := ctx.Base
	k.M.RF.Write(base+RegPC, uint32(entryPC))
	k.M.RF.Write(base+RegPSW, 0)
	k.M.RF.Write(base+RegSave, uint32(t.SaveArea))
	k.threads = append(k.threads, t)
	return t, nil
}

// Link builds the circular ready ring (Section 2.2): each context's
// R2 (NextRRM) points at the next thread's relocation mask, with the
// last wrapping to the first.
func (k *Kernel) Link() {
	k.LinkOrder(k.threads)
}

// LinkOrder builds the ready ring in an explicit order — the paper's
// point that "more sophisticated scheduling policies can also be
// implemented by altering the order in which contexts are linked
// together by their NextRRM masks". Each thread must appear exactly
// once (a context has a single NextRRM register).
func (k *Kernel) LinkOrder(order []*Thread) {
	n := len(order)
	if n == 0 {
		return
	}
	seen := make(map[*Thread]bool, n)
	for _, t := range order {
		if seen[t] {
			panic(fmt.Sprintf("kernel: thread %q linked twice", t.Name))
		}
		seen[t] = true
	}
	for i, t := range order {
		next := order[(i+1)%n]
		k.M.RF.Write(t.Ctx.Base+RegNextRRM, uint32(next.Ctx.RRM()))
	}
}

// EnableRemoteMissTrap makes first accesses to remote memory (see
// machine.Config.RemoteBase) yield the processor, APRIL-style: the
// trap saves the PC of the MISSING instruction itself into R0 (so the
// access retries when the thread resumes and the data has arrived) and
// vectors to yield.
func (k *Kernel) EnableRemoteMissTrap() {
	yield := k.YieldAddr()
	k.M.OnRemoteMiss = func(addr int, latency uint32) (int, bool) {
		rrm := k.M.RF.RRM()
		k.M.RF.Write(rrm+RegPC, uint32(k.M.PC)) // retry, not PC+1
		return yield, true
	}
}

// Threads returns the spawned threads in spawn order.
func (k *Kernel) Threads() []*Thread { return k.threads }

// Start installs the first thread's context and begins execution at
// its saved PC. Call after Link.
func (k *Kernel) Start() {
	if len(k.threads) == 0 {
		panic("kernel: no threads")
	}
	t := k.threads[0]
	k.M.RF.SetRRM(t.Ctx.RRM())
	k.M.PC = int(k.M.RF.Read(t.Ctx.Base + RegPC))
}

// Run executes until all threads halt or the cycle budget is exhausted.
func (k *Kernel) Run(maxCycles int64) error {
	return k.M.Run(maxCycles)
}
