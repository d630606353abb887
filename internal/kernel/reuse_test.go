package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/machine"
)

// runLengthWorker is a worker with an explicit run length, the shape
// of a machine-tier sweep cell: each iteration spins about runlen
// cycles in an inner loop, then faults for latency cycles.
func runLengthWorker(runlen, latency int) string {
	return fmt.Sprintf(`
worker:
	movi r6, %d
worker_run:
	addi r6, r6, -1
	blt r0, r6, worker_run
	addi r5, r5, 1
	movi r6, %d
	fault r6
	blt r5, r7, worker
	movi r6, 1
	sw r6, 0(r4)
worker_spin:
	movi r6, 2
	fault r6
	beq r0, r0, worker_spin
`, max(runlen/2, 1), latency)
}

// cellRun is everything a managed run leaves behind.
type cellRun struct {
	cycles, useful int64
	stats          [6]int
	mem, regs      []uint32
}

// runCell runs one oversubscribed long-fault cell on m, which must be
// new or reset, and returns its outcome.
func runCell(t *testing.T, m *machine.Machine, src string) cellRun {
	t.Helper()
	img, err := images.get(src)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := newManager(m, img)
	if err != nil {
		t.Fatal(err)
	}
	mgr.EnableLongFaults()
	for i := 0; i < 10; i++ {
		mgr.Spawn(fmt.Sprintf("w%d", i), "worker", 6)
	}
	start, end := mgr.Symbol("worker"), mgr.Symbol("worker_spin")
	var useful int64
	m.Trace = func(pc int, in isa.Instr) {
		if pc >= start && pc < end && in.Op != isa.FAULT {
			useful++
		}
	}
	cycles, err := mgr.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return cellRun{
		cycles: cycles, useful: useful,
		stats: [6]int{mgr.AllocCalls, mgr.DeallocCalls, mgr.Loads, mgr.Unloads, mgr.MgmtPasses, mgr.Faults},
		mem:   slices.Clone(m.Mem), regs: m.RF.Snapshot(0, m.RF.Size()),
	}
}

func managedMachine() *machine.Machine {
	return machine.New(machine.Config{Registers: 128, MultiRRM: true})
}

// TestReusedMachineMatchesFresh runs one machine through a grid of
// cells back to back, resetting it between cells as Release does, and
// checks each cell against a new machine: same cycles, same useful
// instructions (so the same efficiency), same counters, and the same
// final memory and registers. The reused machine first runs a program
// that overwrites its own code, and consecutive cells load different
// user code at UserBase, so its kept predecode table holds stale
// entries at the runtime's and the workers' addresses throughout.
func TestReusedMachineMatchesFresh(t *testing.T) {
	reused := managedMachine()
	reused.Load(asm.MustAssemble(fmt.Sprintf(`
	.org %d
		movi r1, 0
		movi r2, 2
	body:
		addi r4, r4, 1
		addi r5, r5, 2
		xor r6, r4, r5
		addi r1, r1, 1
		blt r1, r2, body
		movi r3, body
		sw r6, 0(r3)
		sw r6, 1(r3)
		sw r6, 2(r3)
		halt
	`, RuntimeBase)), 0)
	reused.PC = RuntimeBase
	if err := reused.Run(1000); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{8, 32, 128} {
		for _, l := range []int{16, 128, 512} {
			src := runLengthWorker(r, l)
			want := runCell(t, managedMachine(), src)
			reused.Reset()
			got := runCell(t, reused, src)
			if got.cycles != want.cycles || got.useful != want.useful || got.stats != want.stats {
				t.Errorf("R=%d L=%d: reused machine ran %d cycles, %d useful, counters %v; new machine %d, %d, %v",
					r, l, got.cycles, got.useful, got.stats, want.cycles, want.useful, want.stats)
			}
			if !slices.Equal(got.mem, want.mem) || !slices.Equal(got.regs, want.regs) {
				t.Errorf("R=%d L=%d: reused machine's final memory or registers differ from a new machine's", r, l)
			}
		}
	}
}

// TestQuantumExceptionReturned: an exception a worker raises while the
// ring runs freely is the run's error, not mistaken for the end of the
// quantum. The worker's store lands outside memory; it must execute
// exactly once, so the manager does not resume the machine after it.
func TestQuantumExceptionReturned(t *testing.T) {
	mgr, err := NewManager(`
worker:
	movi r6, -1
bad:
	sw r6, 0(r6)
	fault r6
`)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Release()
	mgr.Spawn("w", "worker", 1)
	bad, stores := mgr.Symbol("bad"), 0
	mgr.M.Trace = func(pc int, _ isa.Instr) {
		if pc == bad {
			stores++
		}
	}
	_, err = mgr.Run(100_000)
	var ex *machine.Exception
	if !errors.As(err, &ex) || errors.Is(err, machine.ErrBudget) || !strings.Contains(err.Error(), "store outside memory") {
		t.Fatalf("err = %v; want the worker's store exception", err)
	}
	if ex.PC != bad || stores != 1 {
		t.Errorf("exception at pc %d after %d executions of the store; want pc %d, once", ex.PC, stores, bad)
	}
}

// TestImageMemoBound: the memo serves a repeated source from one
// image, and past its limit still assembles new sources without
// keeping them.
func TestImageMemoBound(t *testing.T) {
	memo := newImageMemo(2)
	first, err := memo.get(WorkerSourceLatency(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range []int{20, 30, 40} {
		img, err := memo.get(WorkerSourceLatency(lat))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := img.prog.Symbols["worker_spin"]; !ok {
			t.Fatalf("latency %d: image lacks the user code", lat)
		}
	}
	if n := len(memo.bySource); n != 2 {
		t.Errorf("memo holds %d images; want its limit, 2", n)
	}
	again, err := memo.get(WorkerSourceLatency(10))
	if err != nil || again != first {
		t.Errorf("repeated source assembled again (err %v)", err)
	}
	if _, err := memo.get("bogus r1"); err == nil {
		t.Error("invalid source assembled")
	}
}
