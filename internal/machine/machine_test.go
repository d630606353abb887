package machine

import (
	"errors"
	"strings"
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/regfile"
	"regreloc/internal/testutil"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	m := New(Config{})
	m.Load(asm.MustAssemble(src), 0)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
		movi r1, 5
		movi r2, 7
		add r3, r1, r2
		sub r4, r3, r1
		and r5, r3, r2
		or r6, r1, r2
		xor r7, r1, r2
		halt
	`)
	want := map[int]uint32{1: 5, 2: 7, 3: 12, 4: 7, 5: 12 & 7, 6: 5 | 7, 7: 5 ^ 7}
	for r, v := range want {
		if got := m.RF.Read(r); got != v {
			t.Errorf("r%d = %d want %d", r, got, v)
		}
	}
}

func TestShiftsAndCompares(t *testing.T) {
	m := run(t, `
		movi r1, 1
		movi r2, 4
		sll r3, r1, r2
		srl r4, r3, r1
		movi r5, -8
		sra r6, r5, r1
		slt r7, r5, r1
		sltu r8, r5, r1
		slti r9, r5, 0
		halt
	`)
	if m.RF.Read(3) != 16 || m.RF.Read(4) != 8 {
		t.Errorf("shifts: r3=%d r4=%d", m.RF.Read(3), m.RF.Read(4))
	}
	if int32(m.RF.Read(6)) != -4 {
		t.Errorf("sra = %d", int32(m.RF.Read(6)))
	}
	if m.RF.Read(7) != 1 {
		t.Error("slt signed compare failed")
	}
	if m.RF.Read(8) != 0 {
		t.Error("sltu: -8 unsigned is huge, must not be < 1")
	}
	if m.RF.Read(9) != 1 {
		t.Error("slti failed")
	}
}

func TestLoadStore(t *testing.T) {
	m := run(t, `
		movi r1, 100
		movi r2, 42
		sw r2, 0(r1)
		sw r2, 5(r1)
		lw r3, 0(r1)
		lw r4, 5(r1)
		halt
	`)
	if m.Mem[100] != 42 || m.Mem[105] != 42 {
		t.Errorf("memory = %d, %d", m.Mem[100], m.Mem[105])
	}
	if m.RF.Read(3) != 42 || m.RF.Read(4) != 42 {
		t.Errorf("loads = %d, %d", m.RF.Read(3), m.RF.Read(4))
	}
}

func TestBranchLoop(t *testing.T) {
	m := run(t, `
		movi r1, 0
		movi r2, 10
		movi r3, 0
	loop:
		addi r3, r3, 2
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	if m.RF.Read(3) != 20 {
		t.Errorf("loop sum = %d want 20", m.RF.Read(3))
	}
}

func TestBranchVariants(t *testing.T) {
	m := run(t, `
		movi r1, 5
		movi r2, 5
		movi r9, 0
		beq r1, r2, t1
		halt
	t1:	addi r9, r9, 1
		movi r3, 3
		blt r3, r1, t2
		halt
	t2:	addi r9, r9, 1
		bge r1, r3, t3
		halt
	t3:	addi r9, r9, 1
		halt
	`)
	if m.RF.Read(9) != 3 {
		t.Errorf("branch chain reached %d/3", m.RF.Read(9))
	}
}

func TestJalAndJalr(t *testing.T) {
	m := run(t, `
		movi r10, 0
		jal r1, sub
		addi r10, r10, 100
		halt
	sub:
		addi r10, r10, 1
		jmp r1
	`)
	if m.RF.Read(10) != 101 {
		t.Errorf("r10 = %d want 101 (call then fallthrough)", m.RF.Read(10))
	}
	// r1 holds the return address (2).
	if m.RF.Read(1) != 2 {
		t.Errorf("link register = %d want 2", m.RF.Read(1))
	}
}

func TestLuiOriWideConstant(t *testing.T) {
	m := run(t, `
		li r1, 0xdeadbeef
		halt
	`)
	if m.RF.Read(1) != 0xdeadbeef {
		t.Errorf("wide constant = %#x", m.RF.Read(1))
	}
}

func TestRelocationAppliesToAllOperands(t *testing.T) {
	// Two identical code sequences run under different RRMs must use
	// disjoint absolute registers (Figure 2: the OR applies to every
	// operand field).
	prog := asm.MustAssemble(`
		movi r1, 11
		movi r2, 22
		add r3, r1, r2
		halt
	`)
	for _, base := range []int{0, 32, 64, 96} {
		m := New(Config{})
		m.Load(prog, 0)
		m.RF.SetRRM(base)
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		if got := m.RF.Read(base + 3); got != 33 {
			t.Errorf("base %d: result register = %d want 33", base, got)
		}
		// Other contexts' registers stay zero.
		for _, other := range []int{0, 32, 64, 96} {
			if other != base && m.RF.Read(other+3) != 0 {
				t.Errorf("base %d polluted context at %d", base, other)
			}
		}
	}
}

func TestLDRRMDelaySlot(t *testing.T) {
	// The instruction immediately after LDRRM (the delay slot) still
	// executes in the OLD context; the one after that uses the NEW one.
	m := New(Config{LDRRMDelaySlots: 1})
	m.Load(asm.MustAssemble(`
		movi r1, 32     ; new RRM value
		ldrrm r1
		movi r2, 111    ; delay slot: writes OLD r2 (abs 2)
		movi r2, 222    ; after: writes NEW r2 (abs 34)
		halt
	`), 0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(2) != 111 {
		t.Errorf("old context r2 = %d want 111", m.RF.Read(2))
	}
	if m.RF.Read(34) != 222 {
		t.Errorf("new context r2 = %d want 222", m.RF.Read(34))
	}
}

func TestLDRRMTwoDelaySlots(t *testing.T) {
	m := New(Config{LDRRMDelaySlots: 2})
	m.Load(asm.MustAssemble(`
		movi r1, 32
		ldrrm r1
		movi r2, 1   ; slot 1: old context
		movi r3, 2   ; slot 2: old context
		movi r4, 3   ; new context
		halt
	`), 0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(2) != 1 || m.RF.Read(3) != 2 {
		t.Error("delay slots did not use the old context")
	}
	if m.RF.Read(36) != 3 {
		t.Errorf("post-slot write went to %d not new context", m.RF.Read(36))
	}
}

func TestRDRRM(t *testing.T) {
	m := New(Config{})
	m.RF.SetRRM(64)
	m.Load(asm.MustAssemble("rdrrm r1\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(64+1) != 64 {
		t.Errorf("rdrrm read %d", m.RF.Read(64+1))
	}
}

func TestPSW(t *testing.T) {
	m := run(t, `
		movi r1, 77
		mtpsw r1
		mfpsw r2
		halt
	`)
	if m.PSW != 77 || m.RF.Read(2) != 77 {
		t.Errorf("PSW = %d, r2 = %d", m.PSW, m.RF.Read(2))
	}
}

func TestFF1(t *testing.T) {
	m := run(t, `
		movi r1, 0x50
		ff1 r2, r1
		movi r3, 0
		ff1 r4, r3
		halt
	`)
	if m.RF.Read(2) != 4 {
		t.Errorf("ff1(0x50) = %d want 4", m.RF.Read(2))
	}
	if m.RF.Read(4) != 0xffffffff {
		t.Errorf("ff1(0) = %#x want all-ones", m.RF.Read(4))
	}
}

func TestFaultHook(t *testing.T) {
	m := New(Config{})
	var got []uint32
	m.OnFault = func(lat uint32) { got = append(got, lat) }
	m.Load(asm.MustAssemble(`
		movi r1, 100
		fault r1
		movi r1, 250
		fault r1
		halt
	`), 0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 250 {
		t.Errorf("fault latencies = %v", got)
	}
}

func TestCycleCounting(t *testing.T) {
	m := run(t, "nop\nnop\nnop\nhalt")
	if m.Cycles() != 4 {
		t.Errorf("cycles = %d want 4", m.Cycles())
	}
}

func TestHaltStopsExecution(t *testing.T) {
	m := run(t, "halt\nmovi r1, 9")
	if m.RF.Read(1) != 0 {
		t.Error("executed past halt")
	}
	if !m.Halted() {
		t.Error("not halted")
	}
	// Stepping a halted machine is a no-op.
	c := m.Cycles()
	if err := m.Step(); err != nil || m.Cycles() != c {
		t.Error("step after halt advanced the machine")
	}
}

func TestMemoryExceptions(t *testing.T) {
	for _, src := range []string{
		"li r1, 0x7fffffff\nlw r2, 0(r1)\nhalt",
		"li r1, 0x7fffffff\nsw r1, 0(r1)\nhalt",
	} {
		m := New(Config{})
		m.Load(asm.MustAssemble(src), 0)
		err := m.Run(100)
		var ex *Exception
		if !errors.As(err, &ex) {
			t.Errorf("%q: no exception (err %v)", src, err)
			continue
		}
		if !strings.Contains(ex.Error(), "memory") {
			t.Errorf("exception = %v", ex)
		}
	}
}

func TestRunBudget(t *testing.T) {
	m := New(Config{})
	m.Load(asm.MustAssemble("loop: jal r1, loop"), 0)
	err := m.Run(50)
	var ex *Exception
	if !errors.Is(err, ErrBudget) || !errors.As(err, &ex) || ex.Cycle != 50 {
		t.Errorf("runaway program: err = %v", err)
	}
	// A real exception is not a spent budget.
	m = New(Config{})
	m.Load(asm.MustAssemble("li r1, -1\nsw r1, 0(r1)"), 0)
	if err := m.Run(50); err == nil || errors.Is(err, ErrBudget) {
		t.Errorf("store outside memory: err = %v", err)
	}
}

func TestBoundedModeTraps(t *testing.T) {
	m := New(Config{Mode: regfile.ModeBounded})
	m.RF.SetRRM(40)
	m.RF.SetBound(8) // context of 8 registers
	m.Load(asm.MustAssemble("movi r9, 1\nhalt"), 0)
	err := m.Run(10)
	var oc *regfile.OutOfContextError
	if !errors.As(err, &oc) {
		t.Fatalf("no out-of-context trap: %v", err)
	}
}

func TestMultiRRMInterContextAdd(t *testing.T) {
	// Section 5.3: add c0.r3, c0.r4, c1.r6 reads one operand from a
	// second context.
	m := New(Config{MultiRRM: true})
	bits := m.RF.RRMBits()
	// Context 0 at base 32, context 1 at base 64.
	m.RF.SetRRM2(32 | 64<<uint(bits))
	m.RF.Write(32+4, 40) // c0.r4
	m.RF.Write(64+6, 2)  // c1.r6
	m.Load(asm.MustAssemble("add c0.r3, c0.r4, c1.r6\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.RF.Read(32 + 3); got != 42 {
		t.Errorf("c0.r3 = %d want 42", got)
	}
}

func TestLDRRM2InstallsBothMasks(t *testing.T) {
	m := New(Config{MultiRRM: true, LDRRMDelaySlots: 1})
	bits := m.RF.RRMBits()
	packed := 32 | 64<<uint(bits)
	m.RF.Write(1, uint32(packed)) // r1 in context 0 (RRM 0)
	m.Load(asm.MustAssemble(`
		ldrrm2 r1
		nop
		halt
	`), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.RRM() != 32 || m.RF.RRM1() != 64 {
		t.Errorf("masks = %d, %d want 32, 64", m.RF.RRM(), m.RF.RRM1())
	}
}

func TestTraceHook(t *testing.T) {
	m := New(Config{})
	m.Load(asm.MustAssemble("movi r1, 1\nhalt"), 0)
	var ops []isa.Op
	m.Trace = func(pc int, in isa.Instr) { ops = append(ops, in.Op) }
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0] != isa.MOVI || ops[1] != isa.HALT {
		t.Errorf("trace = %v", ops)
	}
}

func TestReset(t *testing.T) {
	// Dirty every piece of state: registers, both masks, memory, PSW,
	// a remote arrival, every hook, and an LDRRM still pending because
	// its delay slot holds the HALT.
	m := New(Config{RemoteBase: 60000, MultiRRM: true})
	m.OnRemoteMiss = func(int, uint32) (int, bool) { return 0, false }
	m.OnFault = func(uint32) {}
	m.FaultTrap = func(uint32) (int, bool) { return 0, false }
	m.Trace = func(int, isa.Instr) {}
	m.Load(asm.MustAssemble(`
		movi r1, 5
		mtpsw r1
		li r3, 60000
		lw r4, 0(r3)
		sw r1, 100(r0)
		movi r2, 32
		ldrrm r2
		halt
	`), 0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if !m.pendingActive || len(m.arrived) != 1 {
		t.Fatalf("setup left pending=%v arrived=%v", m.pendingActive, m.arrived)
	}
	m.Reset()
	if m.Cycles() != 0 || m.Halted() || m.PC != 0 || m.PSW != 0 {
		t.Errorf("reset left cycles=%d halted=%v pc=%d psw=%d", m.Cycles(), m.Halted(), m.PC, m.PSW)
	}
	for i := 0; i < m.RF.Size(); i++ {
		if m.RF.Read(i) != 0 {
			t.Errorf("reset left r%d = %d", i, m.RF.Read(i))
		}
	}
	if m.RF.RRM() != 0 || m.RF.RRM1() != 0 || !m.RF.MultiRRM() {
		t.Errorf("reset left RRM=%d RRM1=%d multiRRM=%v", m.RF.RRM(), m.RF.RRM1(), m.RF.MultiRRM())
	}
	for a, w := range m.Mem {
		if w != 0 {
			t.Fatalf("reset left Mem[%d] = %d", a, w)
		}
	}
	if m.OnFault != nil || m.FaultTrap != nil || m.OnRemoteMiss != nil || m.Trace != nil {
		t.Error("reset kept a hook")
	}
	if m.pendingActive || m.arrived != nil {
		t.Errorf("reset left pending=%v arrived=%v", m.pendingActive, m.arrived)
	}

	// The kept predecode entries are stale for the next program at the
	// same addresses; it must run as written, in the boot context.
	misses := 0
	m.OnRemoteMiss = func(int, uint32) (int, bool) { misses++; return 0, false }
	m.Load(asm.MustAssemble(`
		movi r1, 7
		li r3, 60000
		lw r4, 0(r3)
		halt
	`), 0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(1) != 7 || m.RF.RRM() != 0 || misses != 1 {
		t.Errorf("after reset: r1=%d RRM=%d remote misses=%d; want 7, 0, 1", m.RF.Read(1), m.RF.RRM(), misses)
	}
}

// TestResetAllocFree: Reset clears in place, keeping memory, the
// register file and the predecode table.
func TestResetAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	m := New(Config{})
	if allocs := testing.AllocsPerRun(10, m.Reset); allocs != 0 {
		t.Errorf("Reset allocated %.0f times; want 0", allocs)
	}
}

func TestLoadBeyondMemoryPanics(t *testing.T) {
	m := New(Config{MemWords: 32})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized load did not panic")
		}
	}()
	m.Load(asm.MustAssemble(".org 30\nnop\nnop\nnop"), 0)
}

func TestExceptionUnwrap(t *testing.T) {
	cause := errors.New("boom")
	ex := &Exception{PC: 3, Cycle: 9, Cause: cause}
	if !errors.Is(ex, cause) {
		t.Error("Unwrap broken")
	}
}

func TestConfigAndResume(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.Registers != 128 || cfg.MemWords != 1<<16 || cfg.LDRRMDelaySlots != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	m.Load(asm.MustAssemble("halt\nmovi r1, 7\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	m.Resume()
	m.PC = 1
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(1) != 7 {
		t.Error("execution after Resume failed")
	}
}

func TestRemoteMissWithoutHandler(t *testing.T) {
	// No OnRemoteMiss handler: remote accesses complete immediately.
	m := New(Config{RemoteBase: 1000})
	m.Mem[1500] = 42
	m.Load(asm.MustAssemble("li r1, 1500\nlw r2, 0(r1)\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(2) != 42 {
		t.Errorf("r2 = %d", m.RF.Read(2))
	}
}

func TestRemoteMissRedirectAndRetry(t *testing.T) {
	m := New(Config{RemoteBase: 1000, RemoteLatency: 99})
	m.Mem[1500] = 7
	// Handler: remember the faulting PC and vector to a retry stub that
	// jumps straight back (the data will have "arrived").
	var gotAddr int
	var gotLat uint32
	m.OnRemoteMiss = func(addr int, lat uint32) (int, bool) {
		gotAddr, gotLat = addr, lat
		m.RF.Write(9, uint32(m.PC)) // save retry PC in r9
		return 20, true             // the "handler" at address 20
	}
	prog := asm.MustAssemble(`
		li r1, 1500
		lw r2, 0(r1)
		halt
		.org 20
		jmp r9     ; handler: immediately retry
	`)
	m.Load(prog, 0)
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if gotAddr != 1500 || gotLat != 99 {
		t.Errorf("handler saw addr=%d lat=%d", gotAddr, gotLat)
	}
	if m.RF.Read(2) != 7 {
		t.Errorf("retried load = %d", m.RF.Read(2))
	}
}

func TestRemoteStoreMisses(t *testing.T) {
	m := New(Config{RemoteBase: 1000})
	misses := 0
	m.OnRemoteMiss = func(addr int, lat uint32) (int, bool) {
		misses++
		return 0, false // complete without redirect
	}
	m.Load(asm.MustAssemble("li r1, 1200\nmovi r2, 5\nsw r2, 0(r1)\nhalt"), 0)
	if err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if misses != 1 {
		t.Errorf("misses = %d", misses)
	}
	if m.Mem[1200] != 5 {
		t.Error("non-redirecting miss must still complete the store")
	}
}

func TestLocalAccessNeverMisses(t *testing.T) {
	m := New(Config{RemoteBase: 1000})
	m.OnRemoteMiss = func(int, uint32) (int, bool) {
		t.Fatal("local access triggered a remote miss")
		return 0, false
	}
	m.Load(asm.MustAssemble("movi r1, 500\nsw r1, 0(r1)\nlw r2, 0(r1)\nhalt"), 0)
	if err := m.Run(20); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedTrapsOnEveryInstructionClass(t *testing.T) {
	// Exercise the per-instruction error paths: in bounded mode every
	// class of instruction must propagate an out-of-context operand as
	// an exception.
	srcs := []string{
		"add r1, r9, r2", // RRR source
		"add r9, r1, r2", // RRR dest
		"addi r1, r9, 1", // RRI source
		"movi r9, 1",     // RI dest
		"lw r1, 0(r9)",   // load base
		"lw r9, 0(r1)",   // load dest
		"sw r9, 0(r1)",   // store source
		"sw r1, 0(r9)",   // store base
		"beq r9, r1, 0",  // branch source
		"jal r9, 0",      // jal link
		"jalr r9, r1",    // jalr link
		"jalr r1, r9",    // jalr target
		"jmp r9",         // jump target
		"ldrrm r9",       // ldrrm source
		"rdrrm r9",       // rdrrm dest
		"mfpsw r9",       // psw dest
		"mtpsw r9",       // psw source
		"ff1 r9, r1",     // ff1 dest
		"ff1 r1, r9",     // ff1 source
		"fault r9",       // fault latency
	}
	for _, src := range srcs {
		m := New(Config{Mode: regfile.ModeBounded})
		m.RF.SetBound(8)
		m.Load(asm.MustAssemble(src+"\nhalt"), 0)
		err := m.Run(10)
		var oc *regfile.OutOfContextError
		if !errors.As(err, &oc) {
			t.Errorf("%q: no out-of-context trap (err %v)", src, err)
		}
	}
}

func TestFetchOutsideMemory(t *testing.T) {
	m := New(Config{MemWords: 64})
	m.PC = -1
	if err := m.Step(); err == nil || !strings.Contains(err.Error(), "fetch") {
		t.Errorf("negative PC: %v", err)
	}
	m2 := New(Config{MemWords: 64})
	m2.PC = 64
	if err := m2.Step(); err == nil || !strings.Contains(err.Error(), "fetch") {
		t.Errorf("PC beyond memory: %v", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	m := New(Config{})
	m.Mem[0] = 0xffffffff // opcode 63
	if err := m.Step(); err == nil || !strings.Contains(err.Error(), "invalid opcode") {
		t.Errorf("err = %v", err)
	}
}

func TestAllBranchesTakenAndNot(t *testing.T) {
	m := run(t, `
		movi r1, 3
		movi r2, 5
		movi r9, 0
		beq r1, r2, bad    ; not taken
		bne r1, r1, bad    ; not taken
		blt r2, r1, bad    ; not taken
		bge r1, r2, bad    ; not taken
		addi r9, r9, 1
		halt
	bad:
		movi r9, -1
		halt
	`)
	if m.RF.Read(9) != 1 {
		t.Errorf("fall-through path r9 = %d", int32(m.RF.Read(9)))
	}
}

func TestAllALUImmediates(t *testing.T) {
	m := run(t, `
		movi r1, 12
		andi r2, r1, 10
		ori r3, r1, 3
		xori r4, r1, 6
		slti r5, r1, 13
		slti r6, r1, 12
		halt
	`)
	if m.RF.Read(2) != 8 || m.RF.Read(3) != 15 || m.RF.Read(4) != 10 {
		t.Errorf("imm alu: %d %d %d", m.RF.Read(2), m.RF.Read(3), m.RF.Read(4))
	}
	if m.RF.Read(5) != 1 || m.RF.Read(6) != 0 {
		t.Error("slti comparisons wrong")
	}
}
