package kernel

import (
	"fmt"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/machine"
)

// enableFaultTrap makes FAULT instructions vector through the yield
// routine automatically: the trap saves the resume PC into the current
// context's R0 (exactly what the explicit "jal r0, yield" does) and
// redirects to yield. This is the paper's implicit-fault variant of
// Figure 3, which Manager's trap runs in production.
func enableFaultTrap(k *Kernel) {
	yield := k.YieldAddr()
	k.M.FaultTrap = func(uint32) (int, bool) {
		rrm := k.M.RF.RRM()
		// Context-relative R0 of the active context is absolute
		// register rrm|0 = rrm.
		k.M.RF.Write(rrm+RegPC, uint32(k.M.PC+1))
		return yield, true
	}
}

func TestFaultTrapSwitchesContexts(t *testing.T) {
	// The paper's implicit variant of Figure 3: "The instruction
	// labelled fault may be explicit (as shown), or the result of a
	// trap." Threads execute FAULT (a simulated remote miss) and the
	// trap vectors through yield without any explicit jal.
	m := machine.New(machine.Config{Registers: 128})
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(`
	threadA:
		addi r4, r4, 1
		movi r5, 100
		fault r5
		beq r0, r0, threadA
	threadB:
		addi r4, r4, 1
		movi r5, 100
		fault r5
		beq r0, r0, threadB
	`, 8); err != nil {
		t.Fatal(err)
	}
	a, err := k.Spawn("A", k.Runtime.Symbols["threadA"], 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Spawn("B", k.Runtime.Symbols["threadB"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Link()
	enableFaultTrap(k)
	k.Start()
	if err := k.Run(2000); err == nil {
		t.Fatal("threads halted unexpectedly")
	}

	ca := int(m.RF.Read(a.Ctx.Base + 4))
	cb := int(m.RF.Read(b.Ctx.Base + 4))
	if ca < 50 || cb < 50 {
		t.Fatalf("iterations A=%d B=%d; trap-driven switching failed", ca, cb)
	}
	if diff := ca - cb; diff < -1 || diff > 1 {
		t.Errorf("unfair rotation: A=%d B=%d", ca, cb)
	}
}

func TestFaultTrapRecordsLatency(t *testing.T) {
	m := machine.New(machine.Config{Registers: 128})
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	var latencies []uint32
	m.OnFault = func(lat uint32) { latencies = append(latencies, lat) }
	if _, err := k.LoadUserChecked(`
	threadA:
		movi r5, 321
		fault r5
		halt
	threadB:
		halt
	`, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("A", k.Runtime.Symbols["threadA"], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("B", k.Runtime.Symbols["threadB"], 8); err != nil {
		t.Fatal(err)
	}
	k.Link()
	enableFaultTrap(k)
	k.Start()
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(latencies) != 1 || latencies[0] != 321 {
		t.Errorf("latencies = %v", latencies)
	}
}

func TestLinkOrderCustomSchedule(t *testing.T) {
	// Section 2.2: scheduling policy = the order contexts are linked.
	// Link four threads in reverse spawn order and verify the rotation
	// follows the custom chain.
	m := machine.New(machine.Config{Registers: 128})
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	src := ""
	for i := 0; i < 4; i++ {
		src += fmt.Sprintf("thread%d:\n\taddi r4, r4, 1\n\tjal r0, yield\n\tbeq r0, r0, thread%d\n", i, i)
	}
	if _, err := k.LoadUserChecked(src, 8); err != nil {
		t.Fatal(err)
	}
	var ths []*Thread
	for i := 0; i < 4; i++ {
		th, err := k.Spawn(fmt.Sprintf("t%d", i), k.Runtime.Symbols[fmt.Sprintf("thread%d", i)], 8)
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, th)
	}
	// Custom order: 0 -> 3 -> 1 -> 2 -> 0.
	k.LinkOrder([]*Thread{ths[0], ths[3], ths[1], ths[2]})
	for i, want := range map[int]int{0: 3, 3: 1, 1: 2, 2: 0} {
		got := int(m.RF.Read(ths[i].Ctx.Base + RegNextRRM))
		if got != ths[want].Ctx.RRM() {
			t.Errorf("thread %d NextRRM = %d want thread %d's %d", i, got, want, ths[want].Ctx.RRM())
		}
	}
	k.Start()
	if err := k.Run(4 * 7 * 25); err == nil {
		t.Fatal("halted unexpectedly")
	}
	// All four make equal progress regardless of link order.
	for i, th := range ths {
		if c := m.RF.Read(th.Ctx.Base + 4); c < 20 {
			t.Errorf("thread %d ran only %d iterations", i, c)
		}
	}
}

func TestLinkOrderDuplicatePanics(t *testing.T) {
	m := machine.New(machine.Config{Registers: 128})
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	th, err := k.Spawn("t", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate link did not panic")
		}
	}()
	k.LinkOrder([]*Thread{th, th})
}
