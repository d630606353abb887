package kernel

import (
	"fmt"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/machine"
)

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	m := machine.New(machine.Config{Registers: 128})
	return New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
}

func TestRuntimeAssembles(t *testing.T) {
	k := newKernel(t)
	for _, sym := range []string{"yield", "load", "unload"} {
		if _, ok := k.Runtime.Symbols[sym]; !ok {
			t.Errorf("runtime missing symbol %q", sym)
		}
	}
	// Entry points exist for every context size 1..64 and are spaced
	// one instruction apart in the interesting range.
	entry := func(kind string, n int) int {
		addr, ok := k.Runtime.Symbols[fmt.Sprintf("%s_entry_%d", kind, n)]
		if !ok {
			t.Fatalf("runtime missing %s_entry_%d", kind, n)
		}
		return addr
	}
	for n := 1; n <= 64; n++ {
		entry("unload", n)
		entry("load", n)
	}
	for n := NumReserved + 1; n < 64; n++ {
		if entry("unload", n+1) != entry("unload", n)-1 {
			t.Errorf("unload entries %d/%d not adjacent", n, n+1)
		}
		if entry("load", n+1) != entry("load", n)-1 {
			t.Errorf("load entries %d/%d not adjacent", n, n+1)
		}
	}
}

func TestFigure3ContextSwitchCost(t *testing.T) {
	// Two threads ping-pong via the yield routine. The paper claims the
	// switch takes "approximately 4 to 6 RISC cycles"; ours is 5 (jal +
	// ldrrm + delay-slot mfpsw + mtpsw + jmp).
	k := newKernel(t)
	_, err := k.LoadUserChecked(`
	threadA:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadA
	threadB:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadB
	`, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := k.Spawn("A", k.Runtime.Symbols["threadA"], 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Spawn("B", k.Runtime.Symbols["threadB"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Link()
	k.Start()

	// Run for a while; each thread iteration is addi + jal + 4-instr
	// yield + beq = 7 cycles, of which the switch is 5 (jal..jmp).
	// The threads loop forever; the budget error is the expected exit.
	const iterations = 1000
	perIter := int64(7)
	if err := k.Run(perIter * iterations * 2); err == nil {
		t.Fatal("ping-pong threads halted unexpectedly")
	}
	ca := int64(k.M.RF.Read(a.Ctx.Base + 4))
	cb := int64(k.M.RF.Read(b.Ctx.Base + 4))
	if ca < iterations-2 || cb < iterations-2 {
		t.Fatalf("threads ran %d/%d iterations, want ~%d each", ca, cb, iterations)
	}
	// Cycles per iteration: total / (ca+cb). Switch cost = perIter - 2
	// (the addi and the beq are thread work, jal through jmp is switch).
	perIterMeasured := float64(k.M.Cycles()) / float64(ca+cb)
	switchCost := perIterMeasured - 2
	if switchCost < 4 || switchCost > 6 {
		t.Errorf("measured context switch cost %.2f cycles, paper claims 4-6", switchCost)
	}
}

func TestRoundRobinIsolation(t *testing.T) {
	// Four threads with different context sizes each accumulate a
	// distinct value; contexts must not interfere.
	k := newKernel(t)
	src := ""
	for i := 0; i < 4; i++ {
		src += fmt.Sprintf(`
	thread%d:
		addi r4, r4, %d
		jal r0, yield
		beq r0, r0, thread%d
	`, i, i+1, i)
	}
	if _, err := k.LoadUserChecked(src, 6); err != nil {
		t.Fatal(err)
	}
	sizes := []int{6, 12, 20, 8}
	var threads []*Thread
	for i, c := range sizes {
		th, err := k.Spawn(fmt.Sprintf("t%d", i), k.Runtime.Symbols[fmt.Sprintf("thread%d", i)], c)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	k.Link()
	k.Start()
	// The threads loop forever; exhaust a fixed budget and inspect.
	if err := k.Run(4 * 100 * 8); err == nil {
		t.Fatal("round-robin threads halted unexpectedly")
	}
	for i, th := range threads {
		got := int(k.M.RF.Read(th.Ctx.Base + 4))
		if got == 0 || got%(i+1) != 0 {
			t.Errorf("thread %d accumulator = %d, not a multiple of %d", i, got, i+1)
		}
	}
}

// schedulerUnloadSource builds a scheduler context's code that unloads
// victim (an n-register context) and halts.
func schedulerUnloadSource(victimRRM, n int) string {
	return fmt.Sprintf(`
	sched:
		rdrrm r6
		movi r4, %d
		sw r6, 0(r4)      ; GlobalSchedRRM = our mask
		movi r5, schedret ; our r5 = return address (unload convention)
		movi r6, %d       ; victim RRM
		ldrrm r6
		beq r4, r4, unload_entry_%d  ; delay slot: branch, no reg writes
	schedret:
		halt
	`, GlobalSchedRRM, victimRRM, n)
}

func TestUnloadRoutine(t *testing.T) {
	k := newKernel(t)
	// Victim thread with 8 registers, populated with known values.
	victim, err := k.Spawn("victim", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if r != RegSave { // preserve the save-pointer invariant
			k.M.RF.Write(victim.Ctx.Base+r, uint32(1000+r))
		}
	}
	if _, err := k.LoadUserChecked(schedulerUnloadSource(victim.Ctx.RRM(), 8), 8); err != nil {
		t.Fatal(err)
	}
	sched, err := k.Spawn("sched", k.Runtime.Symbols["sched"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.M.RF.SetRRM(sched.Ctx.RRM())
	k.M.PC = k.Runtime.Symbols["sched"]
	if err := k.M.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !k.M.Halted() {
		t.Fatal("scheduler did not return and halt")
	}
	// Save area holds all 8 registers.
	for r := 0; r < 8; r++ {
		want := uint32(1000 + r)
		if r == RegSave {
			want = uint32(victim.SaveArea)
		}
		if got := k.M.Mem[victim.SaveArea+r]; got != want {
			t.Errorf("save area[%d] = %d want %d", r, got, want)
		}
	}
	// Control returned to the scheduler's context.
	if k.M.RF.RRM() != sched.Ctx.RRM() {
		t.Errorf("final RRM = %d want scheduler's %d", k.M.RF.RRM(), sched.Ctx.RRM())
	}
}

func TestUnloadCostScalesWithRegisters(t *testing.T) {
	// Section 2.5 / Figure 4: unload cost is C cycles (1 per register)
	// plus a ~10-cycle software overhead.
	cost := func(n int) int64 {
		k := newKernel(t)
		victim, err := k.Spawn("victim", 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.LoadUserChecked(schedulerUnloadSource(victim.Ctx.RRM(), n), 8); err != nil {
			t.Fatal(err)
		}
		sched, err := k.Spawn("sched", k.Runtime.Symbols["sched"], 8)
		if err != nil {
			t.Fatal(err)
		}
		k.M.RF.SetRRM(sched.Ctx.RRM())
		k.M.PC = k.Runtime.Symbols["sched"]
		if err := k.M.Run(1000); err != nil {
			t.Fatal(err)
		}
		return k.M.Cycles()
	}
	c8, c16, c32 := cost(8), cost(16), cost(32)
	if c16-c8 != 8 || c32-c16 != 16 {
		t.Errorf("unload costs %d/%d/%d for 8/16/32 registers: not 1 cycle per register", c8, c16, c32)
	}
	// Overhead beyond the per-register stores stays within the paper's
	// 10-cycle blocking/unblocking allowance plus the switch itself.
	if overhead := c8 - 8; overhead > 16 {
		t.Errorf("unload overhead %d cycles too high", overhead)
	}
}

func TestLoadRoutine(t *testing.T) {
	k := newKernel(t)
	// Thread Y will be loaded from a prepared save area; its code just
	// records a marker and halts.
	if _, err := k.LoadUserChecked(fmt.Sprintf(`
	resume:
		addi r5, r5, 1
		halt
	sched:
		movi r4, %d
		li r5, 20000       ; save area address
		sw r5, 0(r4)
		movi r4, %d
		movi r5, load_entry_8
		sw r5, 0(r4)
		movi r6, 64        ; Y's RRM: context at base 64
		movi r7, load
		ldrrm r6
		jmp r7             ; delay slot: jump target from OUR r7
	`, GlobalLoadPtr, GlobalLoadEntry), 8); err != nil {
		t.Fatal(err)
	}
	resumePC := k.Runtime.Symbols["resume"]
	const sa = 20000
	// Prepare Y's image: PC, PSW, NextRRM, save ptr, r4..r7.
	k.M.Mem[sa+RegPC] = uint32(resumePC)
	k.M.Mem[sa+RegPSW] = 7
	k.M.Mem[sa+RegNextRRM] = 0
	k.M.Mem[sa+RegSave] = sa
	for r := 4; r < 8; r++ {
		k.M.Mem[sa+r] = uint32(2000 + r)
	}
	sched, err := k.Spawn("sched", k.Runtime.Symbols["sched"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.M.RF.SetRRM(sched.Ctx.RRM())
	k.M.PC = k.Runtime.Symbols["sched"]
	if err := k.M.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !k.M.Halted() {
		t.Fatal("loaded thread did not run to halt")
	}
	// Y's context (base 64) holds the restored registers, plus the
	// resume marker increment on r5.
	if got := k.M.RF.Read(64 + 4); got != 2004 {
		t.Errorf("restored r4 = %d", got)
	}
	if got := k.M.RF.Read(64 + 5); got != 2005+1 {
		t.Errorf("r5 after resume = %d want %d", got, 2006)
	}
	if got := k.M.RF.Read(64 + RegSave); got != sa {
		t.Errorf("restored save pointer = %d", got)
	}
	if k.M.PSW != 7 {
		t.Errorf("PSW = %d want 7 (restored)", k.M.PSW)
	}
}

func TestSpawnFailsWhenFull(t *testing.T) {
	k := newKernel(t)
	for i := 0; ; i++ {
		_, err := k.Spawn(fmt.Sprintf("t%d", i), 0, 32)
		if err != nil {
			if i != 4 { // 128/32
				t.Errorf("file exhausted after %d threads, want 4", i)
			}
			break
		}
		if i > 10 {
			t.Fatal("allocator never failed")
		}
	}
}

func TestSpawnMinimumContext(t *testing.T) {
	k := newKernel(t)
	th, err := k.Spawn("tiny", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if th.Regs < NumReserved {
		t.Errorf("Regs = %d, must be at least the reserved set", th.Regs)
	}
}

func TestLinkRing(t *testing.T) {
	k := newKernel(t)
	var ths []*Thread
	for i := 0; i < 3; i++ {
		th, err := k.Spawn(fmt.Sprintf("t%d", i), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, th)
	}
	k.Link()
	for i, th := range ths {
		next := ths[(i+1)%3]
		if got := k.M.RF.Read(th.Ctx.Base + RegNextRRM); got != uint32(next.Ctx.RRM()) {
			t.Errorf("thread %d NextRRM = %d want %d", i, got, next.Ctx.RRM())
		}
	}
}

func TestStartPanicsWithoutThreads(t *testing.T) {
	k := newKernel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Start without threads did not panic")
		}
	}()
	k.Start()
}
