package swonly

import (
	"strings"
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/machine"
)

func TestMIPSLimit(t *testing.T) {
	// Section 5.1: "because of the limited number of general registers
	// on the MIPS architecture, the technique was not practical for
	// more than two contexts."
	if got := MIPSR3000.MaxContexts(); got != 2 {
		t.Errorf("MIPS max contexts = %d want 2", got)
	}
	if got := RegReloc128.MaxContexts(); got < 8 {
		t.Errorf("128-register machine supports only %d contexts", got)
	}
}

func TestPlanFitsAndFails(t *testing.T) {
	p, err := Plan(MIPSR3000, []int{12, 12})
	if err != nil {
		t.Fatalf("two MIPS contexts rejected: %v", err)
	}
	if p.Contexts() != 2 || p.Bases[0] != 8 || p.Bases[1] != 20 {
		t.Errorf("partition = %+v", p)
	}
	if _, err := Plan(MIPSR3000, []int{12, 12, 12}); err == nil {
		t.Error("three MIPS contexts accepted")
	}
	if _, err := Plan(MIPSR3000, []int{0}); err == nil {
		t.Error("zero-size context accepted")
	}
}

func TestPlanArbitrarySizes(t *testing.T) {
	// No power-of-two constraint: "any partitioning of the register
	// file is possible."
	p, err := Plan(RegReloc128, []int{11, 17, 23, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Contexts are disjoint and packed.
	for i := 1; i < p.Contexts(); i++ {
		if p.Bases[i] != p.Bases[i-1]+p.Sizes[i-1] {
			t.Errorf("contexts %d/%d not adjacent: %+v", i-1, i, p)
		}
	}
}

func TestRelocateRewritesOperands(t *testing.T) {
	p := asm.MustAssemble(`
		movi r1, 5
		movi r2, 7
		add r3, r1, r2
		halt
	`)
	rp, err := Relocate(p, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{})
	for i, w := range rp.Words {
		m.Mem[i] = uint32(w)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.RF.Read(43); got != 12 {
		t.Errorf("relocated result register 43 = %d want 12", got)
	}
	if m.RF.Read(3) != 0 {
		t.Error("original register 3 written; relocation incomplete")
	}
}

func TestRelocateErrors(t *testing.T) {
	p := asm.MustAssemble("movi r9, 1")
	if _, err := Relocate(p, 0, 8); err == nil || !strings.Contains(err.Error(), "exceeds context size") {
		t.Errorf("oversized operand: %v", err)
	}
	p = asm.MustAssemble("movi r7, 1")
	if _, err := Relocate(p, 60, 8); err == nil || !strings.Contains(err.Error(), "operand field") {
		t.Errorf("field overflow: %v", err)
	}
}

func TestTwoCompileTimeContextsCoexist(t *testing.T) {
	// The full Section 5.1 demonstration: the SAME thread code compiled
	// twice for disjoint register subsets runs interleaved on a machine
	// with NO relocation hardware (RRM stays 0), and the two instances
	// do not interfere.
	threadSrc := `
		movi r0, 0
		movi r1, %d
	loop:
		addi r0, r0, 1
		bne r0, r1, loop
		halt
	`
	part, err := Plan(RegReloc128, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Compile two versions. (Each version is its own full program; a
	// real system would interleave them via compile-time scheduling.
	// Here we run them sequentially on one machine to verify register
	// disjointness.)
	m := machine.New(machine.Config{})
	progA := asm.MustAssemble(strings.ReplaceAll(threadSrc, "%d", "11"))
	progB := asm.MustAssemble(strings.ReplaceAll(threadSrc, "%d", "22"))
	ra, err := Relocate(progA, part.Bases[0], part.Sizes[0])
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Relocate(progB, part.Bases[1], part.Sizes[1])
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ra.Words {
		m.Mem[i] = uint32(w)
	}
	base := len(ra.Words)
	for i, w := range rb.Words {
		m.Mem[base+i] = uint32(w)
	}
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Run program B from its load address without clearing registers.
	m2 := m
	m2.PC = base
	// Un-halt by constructing a fresh runner: simplest is a new machine
	// sharing memory; instead re-create and replay both.
	m = machine.New(machine.Config{})
	for i, w := range ra.Words {
		m.Mem[i] = uint32(w)
	}
	for i, w := range rb.Words {
		m.Mem[base+i] = uint32(w)
	}
	if err := m.Run(1000); err != nil { // run A
		t.Fatal(err)
	}
	m.PC = base
	if err := runUnhalted(m, 1000); err != nil { // then B
		t.Fatal(err)
	}
	ctrA := m.RF.Read(part.Bases[0])
	ctrB := m.RF.Read(part.Bases[1])
	if ctrA != 11 || ctrB != 22 {
		t.Errorf("counters = %d, %d want 11, 22", ctrA, ctrB)
	}
}

// runUnhalted clears the halt latch by stepping a fresh run loop.
func runUnhalted(m *machine.Machine, budget int64) error {
	// The machine has no un-halt API by design; emulate resumption by
	// copying state into a new machine.
	n := machine.New(m.Config())
	copy(n.Mem, m.Mem)
	for i := 0; i < n.RF.Size(); i++ {
		n.RF.Write(i, m.RF.Read(i))
	}
	n.PC = m.PC
	err := n.Run(budget)
	for i := 0; i < n.RF.Size(); i++ {
		m.RF.Write(i, n.RF.Read(i))
	}
	return err
}
