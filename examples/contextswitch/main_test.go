package main

import (
	"testing"

	"regreloc"
)

// TestThreadsPassTheLoaderCheck: the example's threads load through
// the checked loader at the context size they are spawned in.
func TestThreadsPassTheLoaderCheck(t *testing.T) {
	m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128})
	k := regreloc.NewKernel(m, regreloc.NewBitmapAllocator(128, 64, regreloc.FlexibleCosts))
	if _, err := k.LoadUserChecked(threads, ctx); err != nil {
		t.Fatal(err)
	}
}
