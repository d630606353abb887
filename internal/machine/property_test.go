package machine

import (
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/rng"
)

// genProgram builds a random straight-line program over a ctxSize-
// register context: ALU ops, immediates, in-context memory traffic
// (each context gets a private memory arena via a base register), and
// shifts. No control flow — the point is dense random data flow
// through relocated registers.
func genProgram(src *rng.Source, ctxSize, length int, memBase uint32) *asm.Program {
	// r0 holds the memory arena base and is never overwritten.
	reg := func() int { return 1 + src.Intn(ctxSize-1) }
	var instrs []isa.Instr
	// Seed a few registers with constants, including the memory arena
	// base in r0.
	instrs = append(instrs, isa.Instr{Op: isa.MOVI, Rd: 0, Imm: int32(memBase)})
	for r := 1; r < ctxSize; r++ {
		instrs = append(instrs, isa.Instr{Op: isa.MOVI, Rd: r, Imm: int32(src.Intn(8000) - 4000)})
	}
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU}
	immOps := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI}
	for i := 0; i < length; i++ {
		switch src.Intn(5) {
		case 0, 1:
			instrs = append(instrs, isa.Instr{
				Op: aluOps[src.Intn(len(aluOps))], Rd: reg(), Rs1: reg(), Rs2: reg(),
			})
		case 2:
			instrs = append(instrs, isa.Instr{
				Op: immOps[src.Intn(len(immOps))], Rd: reg(), Rs1: reg(), Imm: int32(src.Intn(256) - 128),
			})
		case 3:
			// Store then load within the private arena: sw rX, off(r0).
			off := int32(src.Intn(16))
			instrs = append(instrs,
				isa.Instr{Op: isa.SW, Rd: reg(), Rs1: 0, Imm: off},
				isa.Instr{Op: isa.LW, Rd: reg(), Rs1: 0, Imm: off},
			)
		case 4:
			instrs = append(instrs, isa.Instr{
				Op: isa.SLL, Rd: reg(), Rs1: reg(), Rs2: reg(),
			})
		}
	}
	instrs = append(instrs, isa.Instr{Op: isa.HALT})

	prog := &asm.Program{Words: make([]isa.Word, len(instrs))}
	for i, in := range instrs {
		prog.Words[i] = isa.Encode(in)
	}
	return prog
}

func TestRelocationTransparencyProperty(t *testing.T) {
	// The paper's central hardware invariant: a program written against
	// context-relative registers behaves identically wherever its
	// context is placed. Run the same random program under RRM=0 and
	// under a random aligned RRM; the context contents must match
	// register for register, and out-of-context registers must stay
	// untouched.
	src := rng.New(2024)
	for trial := 0; trial < 150; trial++ {
		ctxSize := []int{8, 16, 32}[src.Intn(3)]
		prog := genProgram(src.Split(), ctxSize, 60, 4096)

		run := func(rrm int) *Machine {
			m := New(Config{Registers: 128})
			m.Load(prog, 0)
			m.RF.SetRRM(rrm)
			if err := m.Run(10000); err != nil {
				t.Fatalf("trial %d rrm %d: %v", trial, rrm, err)
			}
			return m
		}
		base := run(0)
		slots := 128 / ctxSize
		rrm := (1 + src.Intn(slots-1)) * ctxSize
		moved := run(rrm)

		for r := 0; r < ctxSize; r++ {
			if got, want := moved.RF.Read(rrm+r), base.RF.Read(r); got != want {
				t.Fatalf("trial %d (ctx %d @ %d): r%d = %d, at RRM 0 it was %d",
					trial, ctxSize, rrm, r, got, want)
			}
		}
		// Everything outside the relocated context is untouched.
		for r := 0; r < 128; r++ {
			if r >= rrm && r < rrm+ctxSize {
				continue
			}
			if moved.RF.Read(r) != 0 {
				t.Fatalf("trial %d: register %d polluted (context at %d..%d)",
					trial, r, rrm, rrm+ctxSize)
			}
		}
		if base.Cycles() != moved.Cycles() {
			t.Fatalf("trial %d: cycle counts differ (%d vs %d)", trial, base.Cycles(), moved.Cycles())
		}
	}
}

func TestRelocationTransparencyAcrossModes(t *testing.T) {
	// OR, MUX, and bounds-checked relocation must agree with each other
	// for well-behaved (in-context) programs; ADD agrees too when the
	// base is aligned.
	src := rng.New(77)
	for trial := 0; trial < 60; trial++ {
		ctxSize := 16
		prog := genProgram(src.Split(), ctxSize, 40, 2048)
		rrm := (1 + src.Intn(7)) * ctxSize

		results := map[string][]uint32{}
		for _, mode := range []struct {
			name string
			m    Config
		}{
			{"or", Config{Registers: 128}},
			{"add", Config{Registers: 128, Mode: 1}},
			{"mux", Config{Registers: 128, Mode: 2}},
			{"bounded", Config{Registers: 128, Mode: 3}},
		} {
			m := New(mode.m)
			m.Load(prog, 0)
			m.RF.SetRRM(rrm)
			m.RF.SetBound(ctxSize)
			if err := m.Run(10000); err != nil {
				t.Fatalf("trial %d mode %s: %v", trial, mode.name, err)
			}
			results[mode.name] = registers(m.RF, rrm, ctxSize)
		}
		for name, snap := range results {
			for r, v := range snap {
				if v != results["or"][r] {
					t.Fatalf("trial %d: mode %s r%d = %d, or-mode %d",
						trial, name, r, v, results["or"][r])
				}
			}
		}
	}
}
