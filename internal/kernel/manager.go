package kernel

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/machine"
)

// Manager runs an oversubscribed thread population on the machine with
// every architectural state change executed as real assembly: context
// allocation and deallocation use the Appendix A routines
// (ctx_alloc16/ctx_dealloc), context loading uses the Section 2.5
// multi-entry load routine, context switching is the Figure 3 yield
// entered through the fault trap, and ready-ring relinking uses the
// Section 5.3 multiple-RRM extension so the scheduler can update
// another context's NextRRM register without unloading it.
//
// The Go side plays only the roles hardware and the environment play
// in the paper: it decides when a management pass happens (a timer
// interrupt), parks the machine at the next fault (trap vectoring),
// reads completion flags from memory, deposits values into the
// scheduler context's own registers (the scheduler's local
// computation), and performs the interrupt-return (restoring RRM/PC).
//
// Managed-mode constraint: thread contexts are 16 registers (the
// ctx_alloc16 routine), so user code must stay within r0..r15 — which
// also keeps every operand's high bit clear under the multiple-RRM
// decode.
type Manager struct {
	M   *machine.Machine
	img *image

	schedRRM int
	rrmBits  int

	resident []*ManagedThread // ring order
	waiting  []*ManagedThread
	unloaded []*ManagedThread // blocked, registers saved, context freed
	finished int

	// Long-fault mode state (see manager_faults.go).
	faultState    map[*ManagedThread]*managedFaultState
	pendingUnload *ManagedThread

	descNext int
	saveNext int

	parkRequested bool
	parked        bool

	// Stats.
	AllocCalls, DeallocCalls, Loads, Unloads, MgmtPasses, Faults int
}

// ManagedThread is one thread under Manager control.
type ManagedThread struct {
	Name    string
	EntryPC int
	Iters   int // work segments before setting the done flag
	ID      int

	desc     int
	save     int
	rrm      int
	resident bool
	finished bool
}

// RRM returns the thread's context base while resident.
func (t *ManagedThread) RRM() int { return t.rrm }

// Finished reports whether the thread completed.
func (t *ManagedThread) Finished() bool { return t.finished }

// Memory layout for managed mode (word addresses).
const (
	// doneFlagBase sits in a data region far above the runtime image
	// (which occupies [RuntimeBase, UserBase)) and below the
	// descriptors at descBase.
	doneFlagBase = 4096
	descBase     = 5120
	mgmtBudget   = 2000
)

// managerStubs is assembly the manager drives as subroutines; each
// path ends in HALT (mgr_enter instead transfers control into a
// freshly loaded thread).
const managerStubs = `
	| mgr_park: where the fault trap vectors when a management pass is
	| pending; the faulting context's resume PC is already in its R0.
mgr_park:
	halt

	| mgr_enter: install the RRM in sched r6 and jump to the address in
	| sched r7 (the load routine), read in the LDRRM delay slot.
mgr_enter:
	ldrrm r6
	jmp r7   | lint:ignore RR201 reads the scheduler's r7 in the slot on purpose

	| mgr_relink: write sched r5 into the NextRRM register (R2) of the
	| context selected by RRM1. Sched r6 holds the packed masks
	| (scheduler | target<<rrmBits); the trailing ldrrm2 collapses both
	| masks back to the scheduler.
mgr_relink:
	ldrrm2 r6
	nop
	addi c1.r2, c0.r5, 0
	movi r6, 0
	ldrrm2 r6
	nop
	halt

	| mgr_call: call the Appendix A routine whose address is in sched
	| r13 (r7/r14/r15 already hold the descriptor, map address, and
	| return target per the allocator convention), then halt.
mgr_call:
	movi r15, mgr_done
	jmp r13
mgr_done:
	halt
`

// ManagerStubsSource returns the scheduler stub assembly, exported so
// the static analyzer (cmd/rrcheck -kernel and the self-check tests)
// can lint it alongside the other kernel routines.
func ManagerStubsSource() string { return managerStubs }

// LintTarget is one kernel assembly routine group with the analyzer
// options it must satisfy.
type LintTarget struct {
	// Name identifies the group in reports.
	Name string
	// Source is the assembly.
	Source string
	// ContextSize is the register budget the group is held to.
	ContextSize int
	// MultiRRM marks groups using the Section 5.3 extension.
	MultiRRM bool
}

// LintTargets enumerates every kernel assembly routine for
// self-application of the static analyzer: the Figure 3 switch and
// Section 2.5 load/unload routines (full 64-register contexts), the
// Appendix A allocator and the manager stubs (which run in the
// scheduler's 16-register context), and the managed worker template
// (8-register thread images).
func LintTargets() []LintTarget {
	return []LintTarget{
		{Name: "runtime", Source: RuntimeSource(), ContextSize: isa.MaxContextSize},
		{Name: "allocator", Source: AllocASMSource(), ContextSize: 16},
		{Name: "manager-stubs", Source: ManagerStubsSource(), ContextSize: 16, MultiRRM: true},
		{Name: "worker", Source: WorkerSource(), ContextSize: 8},
	}
}

// WorkerSource returns generic managed-thread code: run Iters work
// segments (each ending in a FAULT that yields the processor), then
// set the done flag and keep yielding so the rest of the ring runs.
// Register conventions beyond the runtime's R0-R3: R4 = done-flag
// address, R5 = work counter, R7 = iteration target (all restored
// from the save area at load).
func WorkerSource() string { return WorkerSourceLatency(100) }

// WorkerSourceLatency is WorkerSource with an explicit fault latency,
// meaningful under EnableLongFaults. The completion spin uses a short
// latency so finished threads stay cheap to rotate past until reaped.
func WorkerSourceLatency(latency int) string {
	return fmt.Sprintf(`
worker:
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
`, latency)
}

// image is an assembled manager image with the entry points the
// manager drives resolved once. Managers built from the same user
// source share one image; it is read-only once assembled.
type image struct {
	prog *asm.Program

	yield, park, enter, relink, call, done int
	load, loadEntry8, unloadEntry8         int
	alloc16, dealloc                       int
}

// newImage assembles the combined image: runtime, Appendix A
// allocator, manager stubs, and the user code at UserBase.
func newImage(userSrc string) (*image, error) {
	prog, err := asm.Assemble(strings.Join([]string{
		RuntimeSource(),
		AllocASMSource(),
		managerStubs,
		fmt.Sprintf(".org %d", UserBase),
		userSrc,
	}, "\n"))
	if err != nil {
		return nil, err
	}
	img := &image{prog: prog}
	for _, e := range []struct {
		name string
		addr *int
	}{
		{"yield", &img.yield}, {"mgr_park", &img.park}, {"mgr_enter", &img.enter},
		{"mgr_relink", &img.relink}, {"mgr_call", &img.call}, {"mgr_done", &img.done},
		{"load", &img.load}, {"load_entry_8", &img.loadEntry8}, {"unload_entry_8", &img.unloadEntry8},
		{"ctx_alloc16", &img.alloc16}, {"ctx_dealloc", &img.dealloc},
	} {
		a, ok := prog.Symbols[e.name]
		if !ok {
			return nil, fmt.Errorf("kernel: missing symbol %q", e.name)
		}
		*e.addr = a
	}
	return img, nil
}

// maxImages bounds the image memo. rrserved's machine tier builds one
// user source per (R, L) cell and accepts any R and L, so the memo
// must not grow with traffic: once it holds maxImages images, a new
// source is assembled for its manager alone.
const maxImages = 64

// imageMemo shares assembled images by user source: a sweep, and a
// serving tier answering repeated cells, assemble the same few sources
// over and over. It holds at most limit images.
type imageMemo struct {
	mu       sync.Mutex
	limit    int
	bySource map[string]*image
}

func newImageMemo(limit int) *imageMemo {
	return &imageMemo{limit: limit, bySource: make(map[string]*image)}
}

// images is the process-wide memo behind NewManager.
var images = newImageMemo(maxImages)

// get returns the memoized image for userSrc, assembling it on a miss.
// The assembly runs outside the lock; when two goroutines race on one
// source, the first stored wins.
func (c *imageMemo) get(userSrc string) (*image, error) {
	c.mu.Lock()
	img := c.bySource[userSrc]
	c.mu.Unlock()
	if img != nil {
		return img, nil
	}
	img, err := newImage(userSrc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.bySource[userSrc]; prev != nil {
		return prev, nil
	}
	if len(c.bySource) < c.limit {
		c.bySource[userSrc] = img
	}
	return img, nil
}

// machines recycles managed machines, as the node simulator's
// statePool recycles its state: Release resets a machine in place,
// keeping its 64 Ki-entry predecode table, and NewManager takes it
// back.
var machines = sync.Pool{New: func() any {
	return machine.New(machine.Config{Registers: 128, MultiRRM: true})
}}

// NewManager builds the combined image (runtime + Appendix A allocator
// + manager stubs + user code) on a 128-register multi-RRM machine and
// bootstraps the scheduler's own context through the assembly
// allocator. The machine comes from a pool; Release returns it.
func NewManager(userSrc string) (*Manager, error) {
	img, err := images.get(userSrc)
	if err != nil {
		return nil, err
	}
	return newManager(machines.Get().(*machine.Machine), img)
}

// newManager loads img onto m, which must be new or reset, and
// bootstraps the scheduler context. On failure it releases m.
func newManager(m *machine.Machine, img *image) (*Manager, error) {
	m.Load(img.prog, 0)
	mgr := &Manager{
		M: m, img: img,
		rrmBits:  m.RF.RRMBits(),
		descNext: descBase,
		saveNext: SaveAreaBase,
	}
	m.Mem[GlobalAllocMap] = 0xffffffff // 32 free chunks = 128 registers
	// Bootstrap: allocate the scheduler context (base 0 on a full map,
	// coinciding with the boot RRM).
	desc := mgr.newDesc()
	if !mgr.asmAlloc(desc) {
		mgr.Release()
		return nil, errors.New("kernel: scheduler bootstrap allocation failed")
	}
	mgr.schedRRM = int(m.Mem[desc+ThreadRRMOff])
	if mgr.schedRRM != 0 {
		mgr.Release()
		return nil, fmt.Errorf("kernel: scheduler context at %d, expected 0", mgr.schedRRM)
	}
	mgr.installTrap()
	return mgr, nil
}

// Release resets the manager's machine and returns it to the pool
// NewManager takes from. Neither the manager nor its machine may be
// used afterwards. A manager that is never released costs only the
// reuse.
func (mgr *Manager) Release() {
	mgr.M.Reset()
	machines.Put(mgr.M)
	mgr.M = nil
}

func (mgr *Manager) newDesc() int {
	d := mgr.descNext
	mgr.descNext += 2
	return d
}

func (mgr *Manager) symbol(name string) int {
	a, ok := mgr.img.prog.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("kernel: missing symbol %q", name))
	}
	return a
}

// installTrap vectors FAULT instructions through yield, or to the
// parking stub when a management pass is pending (the timer-interrupt
// analogue).
func (mgr *Manager) installTrap() {
	yield, park := mgr.img.yield, mgr.img.park
	m := mgr.M
	m.FaultTrap = func(uint32) (int, bool) {
		rrm := m.RF.RRM()
		m.RF.Write(rrm+RegPC, uint32(m.PC+1))
		mgr.Faults++
		if mgr.parkRequested {
			mgr.parkRequested = false
			mgr.parked = true
			return park, true
		}
		return yield, true
	}
}

// schedReg writes a scheduler-context register.
func (mgr *Manager) schedReg(r int, v uint32) { mgr.M.RF.Write(mgr.schedRRM+r, v) }

// runStub executes scheduler machine code from pc until HALT with the
// scheduler context installed, then clears the halt latch.
func (mgr *Manager) runStub(pc int) {
	mgr.M.RF.SetRRM(mgr.schedRRM)
	mgr.M.PC = pc
	if err := mgr.M.Run(2000); err != nil {
		panic(fmt.Sprintf("kernel: scheduler stub failed: %v", err))
	}
	mgr.M.Resume()
}

// asmAlloc runs ctx_alloc16 for the descriptor; true on success.
func (mgr *Manager) asmAlloc(desc int) bool {
	mgr.AllocCalls++
	mgr.schedReg(7, uint32(desc))
	mgr.schedReg(14, GlobalAllocMap)
	mgr.schedReg(13, uint32(mgr.img.alloc16))
	mgr.runStub(mgr.img.call)
	return mgr.M.RF.Read(mgr.schedRRM+8) == 1
}

// asmDealloc runs ctx_dealloc for the descriptor.
func (mgr *Manager) asmDealloc(desc int) {
	mgr.DeallocCalls++
	mgr.schedReg(7, uint32(desc))
	mgr.schedReg(14, GlobalAllocMap)
	mgr.schedReg(13, uint32(mgr.img.dealloc))
	mgr.runStub(mgr.img.call)
}

// asmRelink sets target's NextRRM (R2) to value via the multiple-RRM
// stub.
func (mgr *Manager) asmRelink(targetRRM, value int) {
	packed := mgr.schedRRM | targetRRM<<uint(mgr.rrmBits)
	mgr.schedReg(5, uint32(value))
	mgr.schedReg(6, uint32(packed))
	mgr.runStub(mgr.img.relink)
}

// Spawn queues a managed thread (entry label in the user source).
func (mgr *Manager) Spawn(name, entryLabel string, iters int) *ManagedThread {
	t := &ManagedThread{
		Name:    name,
		EntryPC: mgr.symbol(entryLabel),
		Iters:   iters,
		ID:      len(mgr.waiting) + len(mgr.resident) + mgr.finished,
		desc:    mgr.newDesc(),
		save:    mgr.saveNext,
	}
	mgr.saveNext += 16
	mgr.waiting = append(mgr.waiting, t)
	return t
}

// admit allocates a context for the first waiting thread, prepares its
// save area, links it into the ring, and transfers control into it via
// the load routine. Returns false if allocation failed or no thread
// waits.
func (mgr *Manager) admit() bool {
	if len(mgr.waiting) == 0 {
		return false
	}
	t := mgr.waiting[0]
	if !mgr.asmAlloc(t.desc) {
		return false
	}
	mgr.waiting = mgr.waiting[1:]
	t.rrm = int(mgr.M.Mem[t.desc+ThreadRRMOff])
	t.resident = true

	// Prepare the save area: the load routine restores R0..R7 for a
	// fresh 8-register image (reserved R0-R3 plus the worker's R4-R7).
	mem := mgr.M.Mem
	mem[t.save+RegPC] = uint32(t.EntryPC)
	mem[t.save+RegPSW] = 0
	mem[t.save+RegSave] = uint32(t.save)
	mem[t.save+4] = uint32(doneFlagBase + t.ID) // R4: done-flag address
	mem[t.save+5] = 0                           // R5: work counter
	mem[t.save+6] = 0                           // R6: scratch
	mem[t.save+7] = uint32(t.Iters)             // R7: iteration target

	// Ring insertion: after resident[0] if the ring is non-empty, else
	// a self-loop.
	if len(mgr.resident) == 0 {
		mem[t.save+RegNextRRM] = uint32(t.rrm)
	} else {
		pred := mgr.resident[0]
		predNext := mgr.M.RF.Read(pred.rrm + RegNextRRM)
		mem[t.save+RegNextRRM] = predNext
		mgr.asmRelink(pred.rrm, t.rrm)
	}
	mgr.resident = append(mgr.resident, t)
	mgr.enterLoad(t)
	return true
}

// enterLoad points the machine at the Section 2.5 load routine for t's
// 8-register image; it ends with "jmp r0", transferring control into
// the thread.
func (mgr *Manager) enterLoad(t *ManagedThread) {
	mgr.Loads++
	mgr.M.Mem[GlobalLoadPtr] = uint32(t.save)
	mgr.M.Mem[GlobalLoadEntry] = uint32(mgr.img.loadEntry8)
	mgr.M.RF.SetRRM(mgr.schedRRM)
	mgr.schedReg(6, uint32(t.rrm))
	mgr.schedReg(7, uint32(mgr.img.load))
	mgr.M.PC = mgr.img.enter
}

// reap deallocates finished resident threads (their done flag is set
// in memory) and unlinks them from the ring. The parked thread is
// never reaped mid-park (its context carries the resume state); it
// gets reaped on a later pass.
func (mgr *Manager) reap(parkedRRM int) {
	for i := 0; i < len(mgr.resident); {
		t := mgr.resident[i]
		if mgr.M.Mem[doneFlagBase+t.ID] == 0 || t.rrm == parkedRRM || len(mgr.resident) == 1 {
			i++
			continue
		}
		// Unlink: the ring predecessor's NextRRM skips t.
		pred := mgr.ringPredecessor(t)
		next := int(mgr.M.RF.Read(t.rrm + RegNextRRM))
		mgr.asmRelink(pred.rrm, next)
		mgr.asmDealloc(t.desc)
		t.resident = false
		t.finished = true
		mgr.finished++
		mgr.resident = append(mgr.resident[:i], mgr.resident[i+1:]...)
	}
}

// reapUnloaded retires unloaded threads whose done flag is set (their
// context was already freed at unload time).
func (mgr *Manager) reapUnloaded() {
	for i := 0; i < len(mgr.unloaded); {
		t := mgr.unloaded[i]
		if mgr.M.Mem[doneFlagBase+t.ID] == 0 {
			i++
			continue
		}
		t.finished = true
		mgr.finished++
		mgr.unloaded = append(mgr.unloaded[:i], mgr.unloaded[i+1:]...)
	}
}

// ringPredecessor finds the resident thread whose NextRRM points at t.
func (mgr *Manager) ringPredecessor(t *ManagedThread) *ManagedThread {
	for _, p := range mgr.resident {
		if int(mgr.M.RF.Read(p.rrm+RegNextRRM)) == t.rrm {
			return p
		}
	}
	panic(fmt.Sprintf("kernel: thread %q not in ring", t.Name))
}

// threadByRRM returns the resident thread occupying the context base.
func (mgr *Manager) threadByRRM(rrm int) *ManagedThread {
	for _, t := range mgr.resident {
		if t.rrm == rrm {
			return t
		}
	}
	return nil
}

// Run executes until every spawned thread has finished or maxCycles
// elapse. It returns the total machine cycles consumed.
func (mgr *Manager) Run(maxCycles int64) (int64, error) {
	total := mgr.finished + len(mgr.resident) + len(mgr.waiting) + len(mgr.unloaded)
	// Admit the first thread to get the ring going.
	if len(mgr.resident) == 0 && !mgr.admit() {
		return mgr.M.Cycles(), errors.New("kernel: could not admit any thread")
	}
	for mgr.finished < total {
		if mgr.M.Cycles() >= maxCycles {
			return mgr.M.Cycles(), fmt.Errorf("kernel: %w with %d/%d finished",
				machine.ErrBudget, mgr.finished, total)
		}
		// Let the ring run freely for a quantum (the inter-interrupt
		// period), then park at the next fault.
		mgr.parkRequested = false
		if err := mgr.M.Run(mgmtBudget); err != nil && !errors.Is(err, machine.ErrBudget) {
			return mgr.M.Cycles(), err
		}
		mgr.parkRequested = true
		if err := mgr.M.Run(mgmtBudget); err != nil {
			return mgr.M.Cycles(), err
		}
		if !mgr.parked {
			// Halted without parking: impossible for worker code.
			return mgr.M.Cycles(), errors.New("kernel: machine halted outside a management park")
		}
		mgr.parked = false
		mgr.M.Resume()
		mgr.MgmtPasses++

		parkedRRM := mgr.M.RF.RRM()
		mgr.reap(parkedRRM)
		mgr.reapUnloaded()

		// Two-phase eviction requested by the trap: unload the blocked
		// context (unless its fault completed while parking).
		if t := mgr.pendingUnload; t != nil {
			mgr.pendingUnload = nil
			if fs := mgr.faultState[t]; t.resident && fs != nil &&
				mgr.M.Cycles() < fs.blockedUntil && mgr.M.Mem[doneFlagBase+t.ID] == 0 {
				mgr.unloadBlocked(t)
			}
		}

		// All resident done and only the parked context left? Reap it
		// too once something else can carry the ring, or directly when
		// nothing is waiting.
		parkedThread := mgr.threadByRRM(parkedRRM)
		if parkedThread != nil && mgr.M.Mem[doneFlagBase+parkedThread.ID] != 0 &&
			len(mgr.resident) == 1 && len(mgr.waiting) == 0 && len(mgr.unloaded) == 0 {
			mgr.asmDealloc(parkedThread.desc)
			parkedThread.resident = false
			parkedThread.finished = true
			mgr.finished++
			mgr.resident = nil
			continue
		}

		// Bring back a serviced unloaded thread, or admit a fresh one;
		// either transfers control into the (re)loaded thread.
		if mgr.reloadOne() {
			continue
		}
		if mgr.admit() {
			continue
		}
		// Otherwise interrupt-return: resume the ring through the
		// parked context's yield path (its R0 was saved by the trap).
		if len(mgr.resident) == 0 {
			if len(mgr.unloaded) > 0 {
				// Everyone is unloaded waiting out faults: idle the
				// machine to the earliest service time, then reload.
				mgr.idleUntilService()
				if mgr.reloadOne() {
					continue
				}
			}
			return mgr.M.Cycles(), errors.New("kernel: ring empty with threads waiting")
		}
		resume := parkedRRM
		if mgr.threadByRRM(parkedRRM) == nil {
			resume = mgr.resident[0].rrm
		}
		mgr.M.RF.SetRRM(resume)
		mgr.M.PC = mgr.img.yield
	}
	return mgr.M.Cycles(), nil
}

// Resident returns the currently resident threads in admit order.
func (mgr *Manager) Resident() []*ManagedThread { return mgr.resident }

// Finished returns how many threads have completed.
func (mgr *Manager) Finished() int { return mgr.finished }

// Symbol resolves a label in the manager's combined image (exported
// for measurement harnesses).
func (mgr *Manager) Symbol(name string) int { return mgr.symbol(name) }
