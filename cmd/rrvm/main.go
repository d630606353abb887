// Command rrvm runs an assembled program on the instruction-level
// register relocation machine.
//
// Usage:
//
//	rrvm [-regs 128] [-mode or] [-rrm 0] [-delay 1] [-max 1000000]
//	     [-trace] [-dump 0:16] file.s
//
// The program is loaded at address 0 and executed until HALT, an
// exception, or the cycle budget. On exit the cycle count and the
// requested register range are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/machine"
	"regreloc/internal/regfile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run implements the tool; it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrvm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		regs    = fs.Int("regs", 128, "register file size")
		mode    = fs.String("mode", "or", "relocation mode: or, add")
		rrm     = fs.Int("rrm", 0, "initial register relocation mask")
		delay   = fs.Int("delay", 1, "LDRRM delay slots")
		max     = fs.Int64("max", 1_000_000, "cycle budget")
		traceOn = fs.Bool("trace", false, "trace every instruction")
		dump    = fs.String("dump", "0:16", "register range to dump, lo:hi")
		multi   = fs.Bool("multirrm", false, "enable the multiple-RRM extension")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	// Only or and add: the bounded and MUX modes need a declared context
	// size, which rrvm cannot set, and without one they relocate
	// exactly as or.
	modes := map[string]regfile.Mode{"or": regfile.ModeOR, "add": regfile.ModeADD}
	m, ok := modes[*mode]
	if !ok {
		fmt.Fprintf(stderr, "rrvm: unknown mode %q\n", *mode)
		return 2
	}

	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "rrvm: %v\n", err)
		return 1
	}
	prog, err := asm.Assemble(string(data))
	if err != nil {
		fmt.Fprintf(stderr, "rrvm: %v\n", err)
		return 1
	}

	vm := machine.New(machine.Config{
		Registers:       *regs,
		Mode:            m,
		LDRRMDelaySlots: *delay,
		MultiRRM:        *multi,
	})
	vm.Load(prog, 0)
	vm.RF.SetRRM(*rrm)
	if *traceOn {
		vm.Trace = func(pc int, in isa.Instr) {
			fmt.Fprintf(stdout, "%8d  pc=%-5d rrm=%-3d %s\n", vm.Cycles(), pc, vm.RF.RRM(), isa.Disassemble(in))
		}
	}

	runErr := vm.Run(*max)
	fmt.Fprintf(stdout, "cycles: %d  halted: %v\n", vm.Cycles(), vm.Halted())
	if runErr != nil {
		fmt.Fprintf(stdout, "stopped: %v\n", runErr)
	}

	lo, hi := 0, 16
	if parts := strings.SplitN(*dump, ":", 2); len(parts) == 2 {
		if v, err := strconv.Atoi(parts[0]); err == nil {
			lo = v
		}
		if v, err := strconv.Atoi(parts[1]); err == nil {
			hi = v
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > vm.RF.Size() {
		hi = vm.RF.Size()
	}
	for r := lo; r < hi; r++ {
		fmt.Fprintf(stdout, "r%-3d = %d\n", r, vm.RF.Read(r))
	}
	if runErr != nil {
		return 1
	}
	return 0
}
