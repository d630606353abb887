package regreloc_test

import (
	"fmt"

	"regreloc"
)

// The paper's Figure 1(a): with 128 registers, a context of size 8
// allocated at base 40 relocates context-relative register 5 to
// absolute register 45 — the RRM is OR-ed into the operand at decode.
func Example_figure1Relocation() {
	m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128})
	prog, _ := regreloc.Assemble("movi r5, 99\nhalt")
	m.Load(prog, 0)
	m.RF.SetRRM(40)
	if err := m.Run(10); err != nil {
		panic(err)
	}
	fmt.Println("absolute register 45 =", m.RF.Read(45))
	// Output: absolute register 45 = 99
}

// Context allocation with the paper's Appendix A bitmap allocator:
// power-of-two sizes, size-aligned bases usable directly as RRMs.
func ExampleNewBitmapAllocator() {
	a := regreloc.NewBitmapAllocator(128, 64, regreloc.FlexibleCosts)
	small, _ := a.Alloc(6)  // rounds to 8
	large, _ := a.Alloc(17) // rounds to 32
	fmt.Printf("6-register thread -> context size %d at base %d\n", small.Size, small.Base)
	fmt.Printf("17-register thread -> context size %d at base %d\n", large.Size, large.Base)
	// Output:
	// 6-register thread -> context size 8 at base 0
	// 17-register thread -> context size 32 at base 32
}

// The Section 3.4 analytic model: efficiency is linear in resident
// contexts until saturation at N* = 1 + L/(R+S).
func ExampleAnalyticParams() {
	p := regreloc.NewAnalyticParams(32, 128, 8)
	fmt.Printf("E_sat = %.2f, N* = %.1f\n", p.Saturated(), p.SaturationPoint())
	fmt.Printf("E(2 contexts) = %.2f, E(8 contexts) = %.2f\n", p.Efficiency(2), p.Efficiency(8))
	// Output:
	// E_sat = 0.80, N* = 4.2
	// E(2 contexts) = 0.38, E(8 contexts) = 0.80
}

// The static context-boundary checker from Section 2.4: a thread
// declared to use an 8-register context must not reference r8+.
func ExampleAnalyzeProgram() {
	prog, _ := regreloc.Assemble("add r9, r1, r1\nhalt")
	for _, d := range regreloc.AnalyzeProgram(prog, regreloc.AnalysisOptions{ContextSize: 8}).Diags {
		fmt.Println(d)
	}
	// Output: line 1 (addr 0): RR101 error: rd operand r9 outside context of 8 registers [add r9, r1, r1]
}

// The Section 2.4 compiler tradeoff: a thread needing 17 registers
// would occupy a 32-register context; in a latency-dominated regime
// the advisor trims it to 16 so more contexts stay resident.
func ExampleAdviseContextSize() {
	adv := regreloc.AdviseContextSize(17, 128, regreloc.NewAnalyticParams(16, 1024, 6))
	fmt.Printf("use %d registers in a %d-register context\n", adv.Registers, adv.ContextSize)
	// Output: use 16 registers in a 16-register context
}

// The Section 5.1 software-only scheme: the MIPS R3000's register
// budget limits compile-time relocation to two contexts.
func ExampleSWProfile() {
	fmt.Println("MIPS R3000 compile-time contexts:", regreloc.ProfileMIPSR3000.MaxContexts())
	// Output: MIPS R3000 compile-time contexts: 2
}
