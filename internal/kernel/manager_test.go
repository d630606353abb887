package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/machine"
)

func TestNewManagerReportsUserLines(t *testing.T) {
	_, err := NewManager("worker:\nbogus r1\n")
	var aerr *asm.Error
	if !errors.As(err, &aerr) || aerr.Line != 2 {
		t.Errorf("err = %v, want an asm error at the user's line 2", err)
	}
}

func TestNewManagerChecksUserCode(t *testing.T) {
	// A managed thread runs in the 16-register context ctx_alloc16
	// gives it, so a worker that writes r20, or a c1 operand (the
	// Section 5.3 selector, whose RRM1 the manager owns), is rejected
	// when the image is built, naming the user's line.
	for _, c := range []struct{ op, want string }{
		{"movi r20, 1", "requires 21 registers but the context holds 16, first outside it at line 3"},
		{"movi c1.r5, 1", "requires 38 registers but the context holds 16, first outside it at line 3"},
	} {
		src := "worker:\n\taddi r5, r5, 1\n\t" + c.op + "\n\tfault r6\n\tbeq r0, r0, worker\n"
		_, err := NewManager(src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.op, err, c.want)
		}
	}
	_, err := NewManager("worker:\n\tmovi r4, 1\n\t.word 0\n")
	if err == nil || !strings.Contains(err.Error(), "line 2 (addr 1024): RR102") {
		t.Errorf("flow into data: err = %v, want RR102 at the user's line 2", err)
	}
}

func TestManagedOversubscription(t *testing.T) {
	// The full system, end to end, on the machine: 12 threads compete
	// for a 128-register file whose scheduler context takes 16
	// registers, leaving room for 7 resident 16-register contexts.
	// Context allocation, deallocation, loading, switching, and ring
	// relinking all execute as assembly.
	mgr, err := NewManager(WorkerSource())
	if err != nil {
		t.Fatal(err)
	}
	const threads = 12
	var all []*ManagedThread
	for i := 0; i < threads; i++ {
		all = append(all, mgr.Spawn(fmt.Sprintf("w%d", i), "worker", 5))
	}
	cycles, err := mgr.Run(3_000_000)
	if err != nil {
		t.Fatalf("after %d cycles: %v", cycles, err)
	}
	if mgr.Finished() != threads {
		t.Fatalf("finished %d/%d", mgr.Finished(), threads)
	}
	for _, th := range all {
		if !th.Finished() {
			t.Errorf("thread %s not finished", th.Name)
		}
	}
	// Every context was returned: the in-memory bitmap shows only the
	// scheduler's 4 chunks in use.
	if got := mgr.M.Mem[GlobalAllocMap]; got != 0xfffffff0 {
		t.Errorf("final AllocMap = %#x, contexts leaked", got)
	}
	// The assembly allocator was exercised well beyond the bootstrap.
	if mgr.AllocCalls < threads || mgr.DeallocCalls != threads || mgr.Loads != threads {
		t.Errorf("allocs=%d deallocs=%d loads=%d", mgr.AllocCalls, mgr.DeallocCalls, mgr.Loads)
	}
	if mgr.Faults < threads*5 {
		t.Errorf("only %d faults for %d work segments", mgr.Faults, threads*5)
	}
	t.Logf("managed run: %d cycles, %d faults, %d mgmt passes, %d allocs",
		cycles, mgr.Faults, mgr.MgmtPasses, mgr.AllocCalls)
}

func TestManagedSingleThread(t *testing.T) {
	mgr, err := NewManager(WorkerSource())
	if err != nil {
		t.Fatal(err)
	}
	th := mgr.Spawn("solo", "worker", 3)
	if _, err := mgr.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if !th.Finished() {
		t.Fatal("solo thread did not finish")
	}
	if mgr.M.Mem[GlobalAllocMap] != 0xfffffff0 {
		t.Errorf("AllocMap = %#x", mgr.M.Mem[GlobalAllocMap])
	}
}

func TestManagedWorkerIsolation(t *testing.T) {
	// Two resident workers with different iteration targets: each
	// counts in its own context; the counters must be exact.
	mgr, err := NewManager(WorkerSource())
	if err != nil {
		t.Fatal(err)
	}
	a := mgr.Spawn("a", "worker", 4)
	b := mgr.Spawn("b", "worker", 9)
	if _, err := mgr.Run(500_000); err != nil {
		t.Fatal(err)
	}
	_ = a
	_ = b
	if mgr.Finished() != 2 {
		t.Fatalf("finished %d/2", mgr.Finished())
	}
	// Done flags were written to the threads' distinct addresses.
	if mgr.M.Mem[doneFlagBase+0] != 1 || mgr.M.Mem[doneFlagBase+1] != 1 {
		t.Error("done flags not set")
	}
}

func TestManagedBudgetExhaustion(t *testing.T) {
	mgr, err := NewManager(WorkerSource())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Spawn("w", "worker", 1_000_000)
	if _, err := mgr.Run(20_000); !errors.Is(err, machine.ErrBudget) {
		t.Fatalf("err = %v; expected budget exhaustion", err)
	}
}

func TestManagedEfficiencyMatchesAnalytic(t *testing.T) {
	// Cross-validate the two simulators: the managed ISA-level run's
	// processor utilization (useful worker instructions / total cycles)
	// should sit near the analytic saturated bound E = R/(R+S) for its
	// actual run length and switch cost, since faults here complete
	// instantly (the ring always has runnable work).
	//
	// A worker iteration is 4 instructions (addi, movi, fault, blt);
	// the fault costs 1 cycle and triggers a 4-cycle yield (ldrrm +
	// delay slot + mtpsw + jmp — the jal is replaced by the trap).
	// Treating the loop's addi/movi/blt as useful work: R = 3, S = 5.
	mgr, err := NewManager(WorkerSource())
	if err != nil {
		t.Fatal(err)
	}
	const threads = 6
	totalIters := 0
	for i := 0; i < threads; i++ {
		iters := 150 + 50*i // staggered completion limits spin-yield time
		totalIters += iters
		mgr.Spawn(fmt.Sprintf("w%d", i), "worker", iters)
	}
	cycles, err := mgr.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	useful := float64(totalIters * 3)
	measured := useful / float64(cycles)
	analytic := 3.0 / (3.0 + 5.0)
	// Finished threads spin-yield until reaped and management passes
	// burn cycles, so the measured value sits below the bound but must
	// stay in its neighbourhood — the two simulators agree on the
	// cost structure.
	if measured < analytic*0.6 || measured > analytic*1.02 {
		t.Errorf("ISA-level utilization %.3f vs analytic R/(R+S) %.3f", measured, analytic)
	}
	t.Logf("ISA-measured utilization %.3f (analytic bound %.3f) over %d cycles", measured, analytic, cycles)
}

func TestManagedLongFaultsUnloadAndReload(t *testing.T) {
	// The complete Section 3.3 lifecycle at the ISA level: threads
	// fault with real latencies, blocked contexts are switch-spun past
	// and eventually evicted by the two-phase rule (unload routine +
	// deallocator, both assembly), and reload through the load routine
	// once their faults are serviced.
	mgr, err := NewManager(WorkerSourceLatency(600))
	if err != nil {
		t.Fatal(err)
	}
	mgr.EnableLongFaults()
	const threads = 10 // capacity is 7 contexts after the scheduler's
	var all []*ManagedThread
	for i := 0; i < threads; i++ {
		all = append(all, mgr.Spawn(fmt.Sprintf("w%d", i), "worker", 4))
	}
	cycles, err := mgr.Run(5_000_000)
	if err != nil {
		t.Fatalf("after %d cycles: %v", cycles, err)
	}
	if mgr.Finished() != threads {
		t.Fatalf("finished %d/%d", mgr.Finished(), threads)
	}
	for _, th := range all {
		if !th.Finished() {
			t.Errorf("%s unfinished", th.Name)
		}
	}
	if mgr.Unloads == 0 {
		t.Error("long faults with oversubscription never triggered an unload")
	}
	if mgr.Loads <= threads {
		t.Errorf("loads = %d; expected reloads beyond the %d admissions", mgr.Loads, threads)
	}
	if got := mgr.M.Mem[GlobalAllocMap]; got != 0xfffffff0 {
		t.Errorf("final AllocMap = %#x, contexts leaked", got)
	}
	t.Logf("long-fault run: %d cycles, %d faults, %d unloads, %d loads",
		cycles, mgr.Faults, mgr.Unloads, mgr.Loads)
}

func TestManagedLongFaultsPreserveState(t *testing.T) {
	// A thread unloaded mid-work must resume with its counter intact:
	// the unload/reload round trip through memory preserves every
	// register. Force eviction with two threads on a tiny latency gap.
	mgr, err := NewManager(WorkerSourceLatency(400))
	if err != nil {
		t.Fatal(err)
	}
	mgr.EnableLongFaults()
	const threads = 9
	for i := 0; i < threads; i++ {
		mgr.Spawn(fmt.Sprintf("w%d", i), "worker", 3)
	}
	if _, err := mgr.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	// Completion itself proves counter integrity (each thread must
	// count exactly to its target through any number of migrations),
	// and every done flag is exactly 1.
	for i := 0; i < threads; i++ {
		if got := mgr.M.Mem[doneFlagBase+i]; got != 1 {
			t.Errorf("thread %d done flag = %d", i, got)
		}
	}
}
