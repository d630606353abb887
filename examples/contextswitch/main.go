// Contextswitch runs the paper's Figure 3 on the instruction-level
// machine: two threads in separate relocated contexts ping-pong
// through the 4-instruction yield routine, and the per-switch cycle
// cost is measured (the paper claims "approximately 4 to 6 RISC
// cycles").
package main

import (
	"fmt"
	"log"

	"regreloc"
)

// threads is the example's user code. Each thread increments its
// private counter (context-relative r4) and yields; "jal r0, yield"
// saves the resume PC in R0, exactly as in the paper's listing.
const threads = `
	threadA:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadA
	threadB:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadB
	`

// ctx is the size of the contexts the threads are spawned in, which
// the loader checks their code against (paper Section 2.4).
const ctx = 8

func main() {
	m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128, LDRRMDelaySlots: 1})
	k := regreloc.NewKernel(m, regreloc.NewBitmapAllocator(128, 64, regreloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(threads, ctx); err != nil {
		log.Fatal(err)
	}

	a, err := k.Spawn("A", k.Runtime.Symbols["threadA"], ctx)
	if err != nil {
		log.Fatal(err)
	}
	b, err := k.Spawn("B", k.Runtime.Symbols["threadB"], ctx)
	if err != nil {
		log.Fatal(err)
	}
	k.Link()  // circular NextRRM ring: A -> B -> A
	k.Start() // install A's RRM, jump to its PC

	const budget = 28_000
	if err := k.Run(budget); err == nil {
		log.Fatal("threads halted unexpectedly")
	}

	ca := int64(m.RF.Read(a.Ctx.Base + 4))
	cb := int64(m.RF.Read(b.Ctx.Base + 4))
	perIter := float64(m.Cycles()) / float64(ca+cb)
	fmt.Printf("thread A context: registers [%d, %d), RRM = %d\n", a.Ctx.Base, a.Ctx.Base+a.Ctx.Size, a.Ctx.RRM())
	fmt.Printf("thread B context: registers [%d, %d), RRM = %d\n", b.Ctx.Base, b.Ctx.Base+b.Ctx.Size, b.Ctx.RRM())
	fmt.Printf("iterations: A=%d B=%d over %d cycles\n", ca, cb, m.Cycles())
	fmt.Printf("cycles per iteration: %.2f (1 addi + 1 beq + context switch)\n", perIter)
	fmt.Printf("measured context switch cost: %.2f cycles (paper: approximately 4-6)\n", perIter-2)
}
