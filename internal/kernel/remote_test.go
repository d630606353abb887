package kernel

import (
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/machine"
)

func TestRemoteMissYieldsAndRetries(t *testing.T) {
	// APRIL-style coarse multithreading: a load from remote memory
	// misses, the trap yields to the other context, and when the ring
	// comes back around the retried load completes with the data.
	m := machine.New(machine.Config{
		Registers:     128,
		RemoteBase:    30000,
		RemoteLatency: 200,
	})
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(`
	threadA:
		li r5, 30010     ; remote address
		lw r6, 0(r5)     ; first access misses -> yield; retried on resume
		addi r7, r6, 1
		halt
	threadB:
		addi r4, r4, 1
		jal r0, yield
		beq r0, r0, threadB
	`, 8); err != nil {
		t.Fatal(err)
	}
	m.Mem[30010] = 4141
	a, err := k.Spawn("A", k.Runtime.Symbols["threadA"], 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Spawn("B", k.Runtime.Symbols["threadB"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Link()
	k.EnableRemoteMissTrap()
	k.Start()
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("thread A never completed its remote load")
	}
	if got := m.RF.Read(a.Ctx.Base + 6); got != 4141 {
		t.Errorf("remote load value = %d want 4141", got)
	}
	if got := m.RF.Read(a.Ctx.Base + 7); got != 4142 {
		t.Errorf("dependent computation = %d", got)
	}
	// Thread B ran during A's miss: overlap achieved.
	if got := m.RF.Read(b.Ctx.Base + 4); got == 0 {
		t.Error("no overlap: thread B never ran during the remote miss")
	}
}

func TestRemoteMissCountsOnce(t *testing.T) {
	m := machine.New(machine.Config{Registers: 128, RemoteBase: 30000})
	misses := 0
	m.OnRemoteMiss = func(addr int, lat uint32) (int, bool) {
		misses++
		return 0, false // complete immediately (no handler redirect)
	}
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	_ = k
	if _, err := k.LoadUserChecked(`
	main:
		li r5, 30020
		lw r6, 0(r5)
		lw r7, 0(r5)   ; second access: data already arrived
		sw r6, 1(r5)   ; store to a different remote word: new miss
		halt
	`, 8); err != nil {
		t.Fatal(err)
	}
	m.PC = k.Runtime.Symbols["main"]
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if misses != 2 {
		t.Errorf("misses = %d want 2 (one per distinct word)", misses)
	}
}

func TestLocalMemoryUnaffectedByRemoteConfig(t *testing.T) {
	m := machine.New(machine.Config{Registers: 128, RemoteBase: 30000})
	m.OnRemoteMiss = func(int, uint32) (int, bool) { t.Fatal("local access missed"); return 0, false }
	k := New(m, alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(`
	main:
		li r5, 20000
		movi r6, 7
		sw r6, 0(r5)
		lw r7, 0(r5)
		halt
	`, 8); err != nil {
		t.Fatal(err)
	}
	m.PC = k.Runtime.Symbols["main"]
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(7) != 7 {
		t.Error("local round trip failed")
	}
}
