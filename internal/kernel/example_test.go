package kernel_test

import (
	"fmt"

	"regreloc/internal/alloc"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
)

// The paper's whole mechanism in one flow: spawn two threads in
// relocated contexts, link the NextRRM ring, and let them ping-pong
// through the Figure 3 yield routine.
func Example() {
	m := machine.New(machine.Config{Registers: 128})
	k := kernel.New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	_, err := k.LoadUserChecked(`
	threadA:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadA
	threadB:
		addi r4, r4, 2
		jal r0, yield
		beq r0, r0, threadB
	`, 8)
	if err != nil {
		panic(err)
	}
	a, _ := k.Spawn("A", k.Runtime.Symbols["threadA"], 8)
	b, _ := k.Spawn("B", k.Runtime.Symbols["threadB"], 8)
	k.Link()
	k.Start()
	k.Run(7 * 2 * 10) // ~ten round trips, then the budget stops the loop

	fmt.Printf("A (context at %d) counted %d\n", a.Ctx.Base, m.RF.Read(a.Ctx.Base+4))
	fmt.Printf("B (context at %d) counted %d\n", b.Ctx.Base, m.RF.Read(b.Ctx.Base+4))
	// Output:
	// A (context at 0) counted 11
	// B (context at 8) counted 20
}

// Managed mode: oversubscribe the register file and let every runtime
// operation execute as assembly.
func ExampleManager() {
	mgr, err := kernel.NewManager(kernel.WorkerSource())
	if err != nil {
		panic(err)
	}
	for i := 0; i < 9; i++ {
		mgr.Spawn(fmt.Sprintf("w%d", i), "worker", 3)
	}
	if _, err := mgr.Run(1_000_000); err != nil {
		panic(err)
	}
	fmt.Printf("finished %d threads; context loads %d; bitmap %#x\n",
		mgr.Finished(), mgr.Loads, mgr.M.Mem[kernel.GlobalAllocMap])
	// Output: finished 9 threads; context loads 9; bitmap 0xfffffff0
}
