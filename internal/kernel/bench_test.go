package kernel

import (
	"fmt"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/machine"
)

// BenchmarkManagedRun measures the full-system managed execution: 12
// threads over a 128-register file with every runtime operation in
// assembly. Each iteration releases its manager, so the next reuses
// the pooled machine and the memoized image, as sweep cells do.
func BenchmarkManagedRun(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		mgr, err := NewManager(WorkerSource())
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 12; t++ {
			mgr.Spawn(fmt.Sprintf("w%d", t), "worker", 5)
		}
		c, err := mgr.Run(3_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
		mgr.Release()
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

// BenchmarkYieldRoundTrip measures real-time cost of simulated context
// switches (the simulator's own speed, not the modeled cycles).
func BenchmarkYieldRoundTrip(b *testing.B) {
	cost, err := benchSwitchMachine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cost.M.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSwitchMachine() (*Kernel, error) {
	k := New(machine.New(machine.Config{Registers: 128}),
		alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	if _, err := k.LoadUser(`
	threadA:
		jal r0, yield
		beq r0, r0, threadA
	threadB:
		jal r0, yield
		beq r0, r0, threadB
	`); err != nil {
		return nil, err
	}
	if _, err := k.Spawn("A", k.Runtime.Symbols["threadA"], 8); err != nil {
		return nil, err
	}
	if _, err := k.Spawn("B", k.Runtime.Symbols["threadB"], 8); err != nil {
		return nil, err
	}
	k.Link()
	k.Start()
	return k, nil
}
