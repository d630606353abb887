package experiment

import (
	"fmt"

	"regreloc/internal/alloc"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
)

// harnessCtx is the context size the measurement harnesses spawn their
// threads in, and so the size the loader checks their code against.
const harnessCtx = 8

// switchHarness is MeasureContextSwitch's thread code: two threads
// that each count in r4 and yield through the Figure 3 routine.
const switchHarness = `
	threadA:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadA
	threadB:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadB
	`

// MeasureContextSwitch runs the Figure 3 yield routine on the
// instruction-level machine with two ping-ponging threads and returns
// the measured per-switch cost in cycles (the paper claims 4-6).
func MeasureContextSwitch() (float64, error) {
	m := machine.New(machine.Config{Registers: 128})
	k := kernel.New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(switchHarness, harnessCtx); err != nil {
		return 0, err
	}
	a, err := k.Spawn("A", k.Runtime.Symbols["threadA"], harnessCtx)
	if err != nil {
		return 0, err
	}
	b, err := k.Spawn("B", k.Runtime.Symbols["threadB"], harnessCtx)
	if err != nil {
		return 0, err
	}
	k.Link()
	k.Start()
	// 7 cycles per iteration (addi + 5-cycle switch + beq); run many.
	if err := k.Run(7 * 2 * 2000); err == nil {
		return 0, fmt.Errorf("ping-pong threads halted unexpectedly")
	}
	iters := int64(m.RF.Read(a.Ctx.Base+4)) + int64(m.RF.Read(b.Ctx.Base+4))
	if iters == 0 {
		return 0, fmt.Errorf("threads made no progress")
	}
	perIter := float64(m.Cycles()) / float64(iters)
	return perIter - 2, nil // subtract the addi and beq thread work
}

// unloadSizes are the context sizes Figure 4's unload is measured at.
var unloadSizes = []int{8, 16, 32}

// unloadHarness is MeasureUnload's scheduler code: it unloads the
// n-register context at victimRRM through the Section 2.5 routine,
// which returns to schedret.
func unloadHarness(victimRRM, n int) string {
	return fmt.Sprintf(`
	sched:
		rdrrm r6
		movi r4, %d
		sw r6, 0(r4)
		movi r5, schedret
		movi r6, %d
		ldrrm r6
		beq r4, r4, unload_entry_%d
	schedret:
		halt
	`, kernel.GlobalSchedRRM, victimRRM, n)
}

// MeasureUnload runs the Section 2.5 unload routine for an n-register
// context on the machine and returns the total cycles from the
// scheduler initiating the unload to control returning to it.
func MeasureUnload(n int) (int64, error) {
	m := machine.New(machine.Config{Registers: 128})
	k := kernel.New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	victim, err := k.Spawn("victim", 0, n)
	if err != nil {
		return 0, err
	}
	if _, err := k.LoadUserChecked(unloadHarness(victim.Ctx.RRM(), n), harnessCtx); err != nil {
		return 0, err
	}
	sched, err := k.Spawn("sched", k.Runtime.Symbols["sched"], harnessCtx)
	if err != nil {
		return 0, err
	}
	m.RF.SetRRM(sched.Ctx.RRM())
	m.PC = k.Runtime.Symbols["sched"]
	if err := m.Run(1000); err != nil {
		return 0, err
	}
	return m.Cycles(), nil
}

func init() {
	register(Experiment{
		ID:    "figure3",
		Title: "Figure 3: software context switch cost",
		Description: "Executes the yield routine (LDRRM with one delay slot, " +
			"PSW save/restore, indirect jump) on the instruction-level machine " +
			"and measures the per-switch cycle cost; the paper claims 4-6 cycles.",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{ID: "figure3", Title: "Figure 3: software context switch cost"}
			cost, err := MeasureContextSwitch()
			if err != nil {
				r.Notes = append(r.Notes, "measurement failed: "+err.Error())
				return r
			}
			r.Notes = append(r.Notes,
				fmt.Sprintf("measured context switch: %.2f cycles (paper: approximately 4-6)", cost),
				"breakdown: jal r0,yield + ldrrm r2 + mfpsw r1 (delay slot) + mtpsw r1 + jmp r0",
			)
			r.Points = append(r.Points, Measurement{Panel: "cycles", Arch: "switch", Eff: cost})
			return r
		},
	})

	register(Experiment{
		ID:    "figure4",
		Title: "Figure 4: operation cost table",
		Description: "The cycle costs charged by the simulator (the paper's " +
			"Figure 4 assumptions) next to costs measured by executing the " +
			"runtime routines on the instruction-level machine.",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{ID: "figure4", Title: "Figure 4: operation cost table"}
			r.Notes = append(r.Notes,
				"operation                    flexible  fixed",
				fmt.Sprintf("context allocate (succeed)   %8d  %5d", alloc.FlexibleCosts.AllocSucceed, alloc.FixedCosts.AllocSucceed),
				fmt.Sprintf("context allocate (fail)      %8d  %5d", alloc.FlexibleCosts.AllocFail, alloc.FixedCosts.AllocFail),
				fmt.Sprintf("context deallocate           %8d  %5d", alloc.FlexibleCosts.Dealloc, alloc.FixedCosts.Dealloc),
				"context load/unload          C + 10 cycles (both architectures)",
				"thread queue insert/remove   10 cycles (both architectures)",
			)
			// Deterministic machine executions (no RNG); run the context
			// sizes concurrently and assemble notes/points in size order.
			cycles := make([]int64, len(unloadSizes))
			errs := make([]error, len(unloadSizes))
			r.Err = scale.forEach(len(unloadSizes), func(i int) {
				cycles[i], errs[i] = MeasureUnload(unloadSizes[i])
			})
			for i, n := range unloadSizes {
				if errs[i] != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("unload C=%d: measurement failed: %v", n, errs[i]))
					continue
				}
				r.Notes = append(r.Notes, fmt.Sprintf(
					"ISA-measured unload of a %2d-register context: %d cycles (model charges %d)",
					n, cycles[i], int64(n)+10))
				r.Points = append(r.Points, Measurement{Panel: "unload-cycles", Arch: fmt.Sprintf("C=%d", n), Eff: float64(cycles[i])})
			}
			return r
		},
	})
}
