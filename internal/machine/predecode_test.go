package machine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/regfile"
)

// outcome is what a run leaves behind: the register file, PC, cycle
// count, halt latch, the error Run returned, and memory.
type outcome struct {
	regs   []uint32
	mem    []uint32
	pc     int
	cycles int64
	halted bool
	err    string
}

func outcomeOf(m *Machine, err error) outcome {
	o := outcome{
		regs: registers(m.RF, 0, m.RF.Size()), mem: slices.Clone(m.Mem),
		pc: m.PC, cycles: m.Cycles(), halted: m.Halted(),
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func (o outcome) diff(want outcome) string {
	switch {
	case o.err != want.err:
		return fmt.Sprintf("error %q, want %q", o.err, want.err)
	case o.pc != want.pc || o.cycles != want.cycles || o.halted != want.halted:
		return fmt.Sprintf("pc=%d cycles=%d halted=%v, want pc=%d cycles=%d halted=%v",
			o.pc, o.cycles, o.halted, want.pc, want.cycles, want.halted)
	case !slices.Equal(o.regs, want.regs):
		return fmt.Sprintf("registers %v, want %v", o.regs, want.regs)
	case !slices.Equal(o.mem, want.mem):
		return "memory differs"
	}
	return ""
}

// runDecodeChecked runs m and fails the test if any instruction Step
// executes is not the decode of the word memory holds at its address:
// the oracle for the predecode cache, independent of the cache.
func runDecodeChecked(t *testing.T, m *Machine, budget int64) outcome {
	t.Helper()
	m.Trace = func(pc int, in isa.Instr) {
		if want := isa.Decode(isa.Word(m.Mem[pc])); in != want {
			t.Errorf("pc %d executed %s; memory holds %s", pc, isa.Disassemble(in), isa.Disassemble(want))
		}
	}
	err := m.Run(budget)
	m.Trace = nil
	return outcomeOf(m, err)
}

// dirtied returns a machine that has run prog from address 0 and been
// Reset, so its predecode cache holds entries for words memory no
// longer has.
func dirtied(t *testing.T, cfg Config, prog string) *Machine {
	t.Helper()
	m := New(cfg)
	m.Load(asm.MustAssemble(prog), 0)
	if err := m.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(m.code) == 0 {
		t.Fatal("setup program left no predecode entries")
	}
	m.Reset()
	return m
}

// TestPredecodeMatchesNewMachine runs programs that reach the predecode
// cache's edges on a machine whose cache is already populated, and
// checks each against a new machine: same registers, memory, PC,
// cycles, halt state and error, and every executed instruction the
// decode of the word in memory.
func TestPredecodeMatchesNewMachine(t *testing.T) {
	patched := isa.Encode(isa.Instr{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 100})
	cases := []struct {
		name  string
		cfg   Config
		dirty string // run, then Reset, before the program
		prog  string
		base  int
		check func(t *testing.T, m *Machine)
	}{{
		// The dirty run leaves minCode entries; the jump to 3000 must
		// grow the cache mid-run.
		name:  "fetch-above-extent",
		dirty: "movi r1, 1\nhalt",
		prog: `
			movi r1, 1
			li r2, 3000
			jmp r2
		back:
			addi r1, r1, 10
			halt
			.org 3000
			addi r1, r1, 100
			beq r0, r0, back
		`,
		check: func(t *testing.T, m *Machine) {
			if m.RF.Read(1) != 111 || len(m.code) != 4096 {
				t.Errorf("r1=%d, cache %d entries; want 111, 4096", m.RF.Read(1), len(m.code))
			}
		},
	}, {
		// The word at 16 is executed, then overwritten by a store, then
		// executed again; the dirty run leaves the patched word's entry
		// cached at 16 while memory holds the original.
		name: "store-into-cached-word",
		prog: fmt.Sprintf(`
			movi r5, 0
			movi r6, 2
			li r7, %d
			movi r8, 16
			beq r0, r0, patch
			.org 16
		patch:
			addi r5, r5, 1
			sw r7, 0(r8)
			addi r6, r6, -1
			bne r6, r0, patch
			halt
		`, patched),
		check: func(t *testing.T, m *Machine) {
			if m.RF.Read(5) != 101 {
				t.Errorf("r5 = %d; want 101 (1 before the patch, 100 after)", m.RF.Read(5))
			}
		},
	}, {
		// A different program at a higher base, over addresses the dirty
		// run executed.
		name: "reset-load-higher-base",
		dirty: `
			li r2, 600
			jmp r2
			.org 600
			movi r1, 7
			movi r2, 9
			xor r3, r1, r2
			sw r3, 700(r0)
			halt
		`,
		prog: `
			movi r1, 0
			movi r2, 10
		loop:
			addi r1, r1, 3
			addi r2, r2, -1
			bne r2, r9, loop
			halt
		`,
		base: 600,
		check: func(t *testing.T, m *Machine) {
			if m.RF.Read(1) != 30 || m.PC != 606 {
				t.Errorf("r1=%d pc=%d; want 30, 606", m.RF.Read(1), m.PC)
			}
		},
	}, {
		// Memory of 1000 words, not a power of two: the cache stops at
		// 1000 entries, and running off the end is a fetch exception.
		name:  "mem-words-1000",
		cfg:   Config{MemWords: 1000},
		dirty: "li r2, 990\njmp r2\n.org 990\nmovi r4, 3\nhalt",
		prog: `
			li r2, 995
			jmp r2
			.org 995
			movi r1, 1
			addi r1, r1, 1
			addi r1, r1, 1
			addi r1, r1, 1
			addi r1, r1, 1
		`,
		check: func(t *testing.T, m *Machine) {
			if m.RF.Read(1) != 5 || len(m.code) != 1000 {
				t.Errorf("r1=%d, cache %d entries; want 5, 1000", m.RF.Read(1), len(m.code))
			}
		},
	}, {
		name:  "mem-words-below-min-code",
		cfg:   Config{MemWords: 100},
		dirty: "movi r1, 1\nhalt",
		prog:  "li r2, 97\njmp r2\n.org 97\nmovi r1, 4\nmovi r2, 5\nadd r3, r1, r2",
		check: func(t *testing.T, m *Machine) {
			if m.RF.Read(3) != 9 || len(m.code) != 100 {
				t.Errorf("r3=%d, cache %d entries; want 9, 100", m.RF.Read(3), len(m.code))
			}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dirty := c.dirty
			if dirty == "" {
				dirty = c.prog
			}
			prog := asm.MustAssemble(c.prog)
			run := func(m *Machine) outcome {
				m.Load(prog, c.base)
				m.PC = c.base
				return runDecodeChecked(t, m, 1000)
			}
			old := dirtied(t, c.cfg, dirty)
			got := run(old)
			want := run(New(c.cfg))
			if d := got.diff(want); d != "" {
				t.Errorf("reused machine: %s", d)
			}
			c.check(t, old)
		})
	}
}

// TestPredecodeSeesMemPokes: a word written straight into Mem between
// runs is executed as written, not as the cache last decoded it.
func TestPredecodeSeesMemPokes(t *testing.T) {
	m := New(Config{})
	m.Load(asm.MustAssemble("movi r1, 1\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	m.Mem[0] = uint32(isa.Encode(isa.Instr{Op: isa.MOVI, Rd: 1, Imm: 2}))
	m.PC = 0
	m.Resume()
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(1) != 2 {
		t.Errorf("r1 = %d after poking movi r1, 2 over movi r1, 1", m.RF.Read(1))
	}
}

// TestNewAllocatesNoPredecodeTable: New allocates memory and registers
// only; the cache grows with the code that runs.
func TestNewAllocatesNoPredecodeTable(t *testing.T) {
	m := New(Config{})
	if m.code != nil {
		t.Fatalf("New allocated %d predecode entries", len(m.code))
	}
	m.Load(asm.MustAssemble("movi r1, 1\nhalt"), 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(m.code) != minCode {
		t.Errorf("two instructions grew the cache to %d entries; want %d", len(m.code), minCode)
	}
}

// staleProgram is what FuzzMachineStep's reused machine runs before
// the fuzzed program: 300 straight-line instructions, none the zero
// word, so after Reset the machine's predecode cache holds an entry
// decoded from a non-zero word at every address a fuzzed program
// occupies.
var staleProgram = func() *asm.Program {
	p := &asm.Program{Words: make([]isa.Word, 301)}
	for i := range 300 {
		r := 1 + i%8
		p.Words[i] = isa.Encode(isa.Instr{Op: isa.ADDI, Rd: r, Rs1: r, Imm: int32(i)})
	}
	p.Words[300] = isa.Encode(isa.Instr{Op: isa.HALT})
	return p
}()

// FuzzMachineStep runs a program of fuzzed words (little-endian, at
// most 256) for a fixed cycle budget on a new machine and on one that
// ran staleProgram and was Reset, and requires the same registers,
// memory, PC, cycle count, halt state and error. cfg picks the
// relocation mode (bits 0-1), Multi-RRM (bit 2), the LDRRM delay slots
// (bit 3) and the bounded-mode context size (bits 4-7). Memory is 1500
// words, so the cache meets its cap. The new machine also checks every
// executed instruction against the decode of its word in memory. Seeds
// are under testdata/fuzz.
func FuzzMachineStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, cfg byte, code []byte) {
		conf := Config{
			Mode:            regfile.Mode(cfg & 3),
			MultiRRM:        cfg&4 != 0,
			LDRRMDelaySlots: 1 + int(cfg>>3&1),
			MemWords:        1500,
		}
		prog := &asm.Program{Words: make([]isa.Word, min(len(code)/4, 256))}
		for i := range prog.Words {
			prog.Words[i] = isa.Word(binary.LittleEndian.Uint32(code[4*i:]))
		}
		load := func(m *Machine) {
			m.Load(prog, 0)
			m.RF.SetBound(int(cfg >> 4))
		}
		const budget = 1000

		fresh := New(conf)
		load(fresh)
		want := runDecodeChecked(t, fresh, budget)

		reused := New(conf)
		reused.Load(staleProgram, 0)
		if err := reused.Run(budget); err != nil {
			t.Fatal(err)
		}
		reused.Reset()
		load(reused)
		if d := outcomeOf(reused, reused.Run(budget)).diff(want); d != "" {
			t.Fatalf("reset machine: %s", d)
		}
	})
}

// registers copies the absolute registers [base, base+n) of f.
func registers(f *regfile.File, base, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = f.Read(base + i)
	}
	return out
}
