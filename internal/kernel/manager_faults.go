package kernel

import "fmt"

// This file extends the Manager with long-latency faults and the
// two-phase unloading of Section 3.3, all at the ISA level:
//
//   - A FAULT's latency operand now means something: the faulting
//     context stays blocked until the latency elapses (machine cycles).
//     The trap saves the PC of the FAULT itself, so the ring's rotation
//     re-executes it — switch-spinning, exactly the probing behaviour
//     the paper's S=8 switch cost allows for.
//   - Each unsuccessful probe accrues the probe cost on the thread.
//     When the accumulated cost reaches the thread's unload cost and
//     there is demand for registers, the machine parks and the manager
//     runs the Section 2.5 unload routine (assembly), deallocates the
//     context (assembly), and unlinks the ring (multi-RRM assembly).
//   - When the fault has been serviced and a context is free again,
//     the thread reloads through the load routine (assembly) and its
//     retried FAULT falls through.
//
// The Go-side bookkeeping (block timestamps, poll costs) stands in for
// scheduler data structures in memory; every architectural state
// change still executes as machine code.

// probeCost is the cycles a failed resumption attempt wastes (the
// switch-in/test/switch-away path, S=8 in the paper's synchronization
// experiments).
const probeCost = 8

// managedFaultState is per-thread blocking bookkeeping.
type managedFaultState struct {
	// blockedUntil is the machine cycle at which the pending fault is
	// serviced; 0 = no fault pending.
	blockedUntil int64
	// pollCost accumulates wasted probe cycles (two-phase phase one).
	pollCost int64
}

// unloadThreshold is the two-phase eviction threshold: the cost of
// unloading and blocking the context (C + 10 for the 8-register images
// managed mode uses).
func (t *ManagedThread) unloadThreshold() int64 { return 8 + 10 }

// EnableLongFaults switches the manager's trap to the blocking
// interpretation of FAULT latencies described above. Without it,
// faults complete instantly (the ring merely rotates).
func (mgr *Manager) EnableLongFaults() {
	yield, park := mgr.img.yield, mgr.img.park
	m := mgr.M
	mgr.faultState = make(map[*ManagedThread]*managedFaultState)
	m.FaultTrap = func(lat uint32) (int, bool) {
		mgr.Faults++
		rrm := m.RF.RRM()
		t := mgr.threadByRRM(rrm)
		if t == nil {
			// Not a managed context (should not happen); rotate.
			m.RF.Write(rrm+RegPC, uint32(m.PC+1))
			return yield, true
		}
		fs := mgr.faultState[t]
		if fs == nil {
			fs = &managedFaultState{}
			mgr.faultState[t] = fs
		}
		now := m.Cycles()
		switch {
		case fs.blockedUntil == 0:
			// Fresh fault: block, save the FAULT's own PC for retry.
			fs.blockedUntil = now + int64(lat)
			fs.pollCost = 0
			m.RF.Write(rrm+RegPC, uint32(m.PC))
			if mgr.parkRequested {
				mgr.parkRequested = false
				mgr.parked = true
				return park, true
			}
			return yield, true
		case now >= fs.blockedUntil:
			// Serviced: clear and fall through past the FAULT.
			fs.blockedUntil = 0
			fs.pollCost = 0
			return 0, false
		default:
			// Still blocked: this visit was a wasted probe.
			fs.pollCost += probeCost
			m.RF.Write(rrm+RegPC, uint32(m.PC))
			if fs.pollCost >= t.unloadThreshold() && mgr.registerDemand() {
				mgr.pendingUnload = t
				mgr.parked = true
				return park, true
			}
			if mgr.parkRequested {
				mgr.parkRequested = false
				mgr.parked = true
				return park, true
			}
			return yield, true
		}
	}
}

// registerDemand reports whether freeing registers would let another
// thread run: fresh threads waiting, or unloaded threads whose faults
// have been serviced.
func (mgr *Manager) registerDemand() bool {
	if len(mgr.waiting) > 0 {
		return true
	}
	now := mgr.M.Cycles()
	for _, t := range mgr.unloaded {
		if fs := mgr.faultState[t]; fs == nil || now >= fs.blockedUntil {
			return true
		}
	}
	return false
}

// unloadBlocked evicts a blocked resident thread: the Section 2.5
// unload routine saves its registers to the save area, the Appendix A
// deallocator frees its context, and the ring is relinked around it.
func (mgr *Manager) unloadBlocked(t *ManagedThread) {
	if len(mgr.resident) <= 1 {
		return // never empty the ring
	}
	// Ring unlink first (multi-RRM relink), while registers are live.
	pred := mgr.ringPredecessor(t)
	next := int(mgr.M.RF.Read(t.rrm + RegNextRRM))
	if pred != t {
		mgr.asmRelink(pred.rrm, next)
	}

	// Run the unload routine: scheduler leaves its own mask in
	// GlobalSchedRRM and its return address in its r5; mgr_enter
	// installs the victim's RRM and jumps to the entry point.
	mgr.M.Mem[GlobalSchedRRM] = uint32(mgr.schedRRM)
	mgr.M.RF.SetRRM(mgr.schedRRM)
	mgr.schedReg(5, uint32(mgr.img.done))
	mgr.schedReg(6, uint32(t.rrm))
	mgr.schedReg(7, uint32(mgr.img.unloadEntry8))
	mgr.M.PC = mgr.img.enter
	if err := mgr.M.Run(2000); err != nil {
		panic(fmt.Sprintf("kernel: managed unload failed: %v", err))
	}
	mgr.M.Resume()
	mgr.Unloads++

	mgr.asmDealloc(t.desc)
	t.resident = false
	for i, r := range mgr.resident {
		if r == t {
			mgr.resident = append(mgr.resident[:i], mgr.resident[i+1:]...)
			break
		}
	}
	mgr.unloaded = append(mgr.unloaded, t)
}

// reloadOne brings back the first unloaded thread whose fault has been
// serviced, if a context can be allocated. It transfers control into
// the thread (the load routine ends with "jmp r0", which re-executes
// the serviced FAULT and falls through). Returns true if control was
// transferred.
func (mgr *Manager) reloadOne() bool {
	now := mgr.M.Cycles()
	for i, t := range mgr.unloaded {
		fs := mgr.faultState[t]
		if fs != nil && now < fs.blockedUntil {
			continue
		}
		if !mgr.asmAlloc(t.desc) {
			return false // no space; a later pass will retry
		}
		mgr.unloaded = append(mgr.unloaded[:i], mgr.unloaded[i+1:]...)
		t.rrm = int(mgr.M.Mem[t.desc+ThreadRRMOff])
		t.resident = true

		// Splice into the ring: the save area's R2 slot becomes the
		// successor, and the predecessor is relinked in-register.
		if len(mgr.resident) == 0 {
			mgr.M.Mem[t.save+RegNextRRM] = uint32(t.rrm)
		} else {
			pred := mgr.resident[0]
			predNext := mgr.M.RF.Read(pred.rrm + RegNextRRM)
			mgr.M.Mem[t.save+RegNextRRM] = predNext
			mgr.asmRelink(pred.rrm, t.rrm)
		}
		mgr.resident = append(mgr.resident, t)
		mgr.enterLoad(t)
		return true
	}
	return false
}

// idleUntilService advances the machine clock (executing NOPs in the
// scheduler context — a real processor would stall) until the earliest
// unloaded thread's fault is serviced.
func (mgr *Manager) idleUntilService() {
	earliest := int64(-1)
	for _, t := range mgr.unloaded {
		if fs := mgr.faultState[t]; fs != nil {
			if earliest < 0 || fs.blockedUntil < earliest {
				earliest = fs.blockedUntil
			}
		}
	}
	for earliest > 0 && mgr.M.Cycles() < earliest {
		// Execute the parking halt repeatedly; each Step costs a cycle.
		mgr.M.Resume()
		mgr.M.PC = mgr.img.park
		if err := mgr.M.Step(); err != nil {
			panic(fmt.Sprintf("kernel: idle step failed: %v", err))
		}
	}
	mgr.M.Resume()
}
