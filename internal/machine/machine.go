// Package machine implements an instruction-level simulator for the
// register relocation processor (Section 2.1). Every instruction costs
// one cycle (the paper's RISC assumption); register operand fields are
// relocated through the RRM during decode; the LDRRM instruction has a
// configurable number of delay slots, matching "depending on the
// organization of the processor pipeline, there may be one or more
// delay slots following a LDRRM instruction".
//
// The machine exists so the runtime-system code the paper presents can
// be executed and *measured*: the Figure 3 context switch (4-6 cycles),
// the Section 2.5 multi-entry load/unload routines, and the Appendix A
// allocator.
package machine

import (
	"errors"
	"fmt"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
	"regreloc/internal/regfile"
)

// Config describes a machine.
type Config struct {
	// Registers is the general register file size (default 128, the
	// paper's running example).
	Registers int
	// Mode is the relocation hardware variant (default ModeOR).
	Mode regfile.Mode
	// LDRRMDelaySlots is the number of delay slots after LDRRM/LDRRM2
	// (default 1, as in the Figure 3 listing).
	LDRRMDelaySlots int
	// MemWords is the data/program memory size in words (default
	// asm.MaxWords, 64Ki, the largest image the assembler builds).
	MemWords int
	// MultiRRM enables the Section 5.3 multiple-active-context
	// extension.
	MultiRRM bool
	// RemoteBase, when nonzero, marks word addresses >= RemoteBase as
	// remote memory: the first access to a remote word misses (the
	// paper's remote cache miss), invoking OnRemoteMiss; a subsequent
	// access finds the data arrived and completes. RemoteLatency is
	// the service latency reported to the handler.
	RemoteBase    int
	RemoteLatency uint32
}

func (c Config) withDefaults() Config {
	if c.Registers == 0 {
		c.Registers = 128
	}
	if c.MemWords == 0 {
		c.MemWords = asm.MaxWords
	}
	if c.LDRRMDelaySlots == 0 {
		c.LDRRMDelaySlots = 1
	}
	return c
}

// Machine is a single simulated processor.
type Machine struct {
	cfg Config
	RF  *regfile.File
	Mem []uint32
	PC  int
	PSW uint32

	cycles int64
	halted bool

	// pending models LDRRM delay slots: the value becomes the active
	// RRM once pendingCount further instructions have been fetched.
	pendingActive bool
	pendingCount  int
	pendingVal    uint32
	pendingDouble bool // LDRRM2: install both masks

	// OnFault, if set, is invoked when a FAULT instruction executes,
	// with the latency value read from its operand register. The paper
	// models remote cache misses and synchronization faults this way;
	// the handler typically makes the kernel switch contexts.
	OnFault func(latency uint32)
	// FaultTrap, if set, is consulted after OnFault: returning
	// redirect=true vectors execution to newPC instead of the next
	// instruction — the paper's "the instruction labelled fault may
	// be ... the result of a trap". The handler is responsible for
	// saving the resume PC (m.PC+1) per the software conventions.
	FaultTrap func(latency uint32) (newPC int, redirect bool)
	// OnRemoteMiss, if set, handles a first access to a remote word
	// (see Config.RemoteBase): the faulting instruction does NOT
	// complete, and execution vectors to newPC when redirect is true.
	// The handler must arrange for the instruction at m.PC to be
	// RETRIED (unlike FaultTrap's m.PC+1 convention), since the access
	// completes only once the data has arrived.
	OnRemoteMiss func(addr int, latency uint32) (newPC int, redirect bool)

	// code is the predecode cache: code[a] is the decoded form of the
	// word code[a].word, for the addresses fetched so far (see
	// predecode). New leaves it empty and Reset keeps it.
	code []decoded

	// arrived tracks remote words whose data has been fetched.
	arrived map[int]bool
	// Trace, if set, is called before each instruction executes.
	Trace func(pc int, in isa.Instr)
}

// Exception is a runtime error raised by the machine, carrying the
// cycle count and PC at which it occurred.
type Exception struct {
	PC    int
	Cycle int64
	Cause error
}

func (e *Exception) Error() string {
	return fmt.Sprintf("machine: pc=%d cycle=%d: %v", e.PC, e.Cycle, e.Cause)
}

func (e *Exception) Unwrap() error { return e.Cause }

// ErrBudget is the cause of the Exception Run returns when its cycle
// budget runs out before HALT. Match it with errors.Is.
var ErrBudget = errors.New("cycle budget exhausted")

// New returns a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg: cfg,
		RF:  regfile.New(cfg.Registers, cfg.Mode),
		Mem: make([]uint32, cfg.MemWords),
	}
	m.RF.SetMultiRRM(cfg.MultiRRM)
	return m
}

// Config returns the machine's configuration (with defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Cycles returns the number of cycles executed so far.
func (m *Machine) Cycles() int64 { return m.cycles }

// Halted reports whether a HALT instruction has executed.
func (m *Machine) Halted() bool { return m.halted }

// Resume clears the halt latch so execution can continue (at m.PC,
// which the caller typically repoints first). It models a management
// processor or debugger restarting the core; the kernel's managed mode
// uses it to run scheduler stubs that end in HALT as subroutines.
func (m *Machine) Resume() { m.halted = false }

// Load copies an assembled program into memory at word address base.
// Its instructions are decoded on first fetch.
func (m *Machine) Load(p *asm.Program, base int) {
	if base+len(p.Words) > len(m.Mem) {
		panic(fmt.Sprintf("machine: program of %d words does not fit at %d", len(p.Words), base))
	}
	for i, w := range p.Words {
		m.Mem[base+i] = uint32(w)
	}
}

// Reset returns the machine to the state New leaves it in, in place:
// memory, registers, PC, PSW, the cycle count, the halt latch, a
// pending LDRRM, remote arrivals and every hook are cleared. The
// predecode cache is kept at the length it has grown to, so a pooled
// machine decodes its next program into the same memory. Step checks
// each entry against Mem, so an entry left by an earlier program is
// decoded again on first use.
func (m *Machine) Reset() {
	mem := m.Mem
	if len(mem) == m.cfg.MemWords {
		clear(mem)
	} else {
		mem = make([]uint32, m.cfg.MemWords)
	}
	m.RF.Reset()
	m.RF.SetMultiRRM(m.cfg.MultiRRM)
	*m = Machine{cfg: m.cfg, RF: m.RF, Mem: mem, code: m.code}
}

func (m *Machine) exception(cause error) error {
	return &Exception{PC: m.PC, Cycle: m.cycles, Cause: cause}
}

// read relocates register field r and reads the register.
func (m *Machine) read(r uint8) (uint32, error) {
	return m.RF.ReadRel(int(r), isa.OperandBits)
}

// write relocates register field r and writes the register.
func (m *Machine) write(r uint8, v uint32) error {
	return m.RF.WriteRel(int(r), isa.OperandBits, v)
}

// Step executes one instruction. It returns an error on an exception
// (bad memory access, out-of-context trap in bounded mode, invalid
// opcode); the machine stops advancing once halted.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	// Commit a pending RRM whose delay slots have elapsed; this happens
	// at instruction fetch, before decode.
	if m.pendingActive {
		if m.pendingCount == 0 {
			if m.pendingDouble {
				m.RF.SetRRM2(int(m.pendingVal))
			} else {
				m.RF.SetRRM(int(m.pendingVal))
			}
			m.pendingActive = false
		} else {
			m.pendingCount--
		}
	}

	pc := m.PC
	if pc < 0 || pc >= len(m.Mem) {
		return m.exception(fmt.Errorf("instruction fetch outside memory"))
	}
	if pc >= len(m.code) || m.code[pc].word != m.Mem[pc] {
		m.predecode(pc) // a miss, or code memory changed
	}
	in := &m.code[pc]
	if m.Trace != nil {
		m.Trace(pc, in.instr())
	}
	m.cycles++
	next := pc + 1

	// Each case relocates only the register fields its format uses, so
	// a bounded-mode trap names a field the instruction reads or
	// writes; where two would trap, the first in the case's order does.
	var err error
	var a, b uint32
	switch in.op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		if b, err = m.read(in.rs2); err != nil {
			break
		}
		err = m.write(in.rd, aluOp(in.op, a, b))
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		err = m.write(in.rd, aluImmOp(in.op, a, in.imm))
	case isa.MOVI:
		err = m.write(in.rd, uint32(in.imm))
	case isa.LUI:
		err = m.write(in.rd, uint32(in.imm)<<12)
	case isa.LW:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		addr := int(int32(a) + in.imm)
		if addr < 0 || addr >= len(m.Mem) {
			err = fmt.Errorf("load outside memory: address %d", addr)
			break
		}
		if pc, miss := m.remoteMiss(addr); miss {
			next = pc
			break
		}
		err = m.write(in.rd, m.Mem[addr])
	case isa.SW:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		if b, err = m.read(in.rd); err != nil { // rd is the source for stores
			break
		}
		addr := int(int32(a) + in.imm)
		if addr < 0 || addr >= len(m.Mem) {
			err = fmt.Errorf("store outside memory: address %d", addr)
			break
		}
		if pc, miss := m.remoteMiss(addr); miss {
			next = pc
			break
		}
		m.Mem[addr] = b
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		if a, err = m.read(in.rd); err != nil { // rd is a source for branches
			break
		}
		if b, err = m.read(in.rs1); err != nil {
			break
		}
		if branchTaken(in.op, a, b) {
			next = pc + int(in.imm)
		}
	case isa.JAL:
		if err = m.write(in.rd, uint32(pc+1)); err != nil {
			break
		}
		next = pc + int(in.imm)
	case isa.JALR:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		if err = m.write(in.rd, uint32(pc+1)); err != nil {
			break
		}
		next = int(a)
	case isa.JMP:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		next = int(a)
	case isa.LDRRM, isa.LDRRM2:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		m.pendingActive = true
		m.pendingCount = m.cfg.LDRRMDelaySlots
		m.pendingVal = a
		m.pendingDouble = in.op == isa.LDRRM2
	case isa.RDRRM:
		err = m.write(in.rd, uint32(m.RF.RRM()))
	case isa.MFPSW:
		err = m.write(in.rd, m.PSW)
	case isa.MTPSW:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		m.PSW = a
	case isa.FF1:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		r := uint32(0xffffffff) // -1: no bit set, as the MC88000 flags it
		for i := 0; i < 32; i++ {
			if a&(1<<uint(i)) != 0 {
				r = uint32(i)
				break
			}
		}
		err = m.write(in.rd, r)
	case isa.FAULT:
		if a, err = m.read(in.rs1); err != nil {
			break
		}
		if m.OnFault != nil {
			m.OnFault(a)
		}
		if m.FaultTrap != nil {
			if pc, redirect := m.FaultTrap(a); redirect {
				next = pc
			}
		}
	default:
		err = fmt.Errorf("invalid opcode %d", in.op)
	}

	if err != nil {
		return m.exception(err)
	}
	m.PC = next
	return nil
}

// Run executes until HALT, an exception, or maxCycles elapse. It
// returns an error for exceptions, and an Exception wrapping ErrBudget
// when maxCycles is hit (a runaway program in tests, or the end of a
// quantum for a caller that runs the machine in slices).
func (m *Machine) Run(maxCycles int64) error {
	start := m.cycles
	for !m.halted {
		if m.cycles-start >= maxCycles {
			return m.exception(ErrBudget)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// minCode is the length, in entries, the predecode cache first grows to.
const minCode = 256

// decoded is a predecode cache entry: an instruction word and the
// fields of isa.Decode(word) that Step reads, in 12 bytes. The zero
// entry is valid for the zero word, because isa.Decode(0) is the zero
// Instr.
type decoded struct {
	word         uint32
	imm          int32
	op           isa.Op
	rd, rs1, rs2 uint8
}

func decode(w uint32) decoded {
	in := isa.Decode(isa.Word(w))
	return decoded{word: w, imm: in.Imm, op: in.Op, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
}

// instr is the entry as isa.Decode returns it, for the Trace hook.
func (d decoded) instr() isa.Instr {
	return isa.Instr{Op: d.op, Rd: int(d.rd), Rs1: int(d.rs1), Rs2: int(d.rs2), Imm: d.imm}
}

// predecode decodes the word at pc, which is in bounds for Mem, into
// the predecode cache. Step's fetch calls it when the cache does not
// reach pc or the entry's word differs from Mem[pc]; otherwise a fetch
// is one word compare. The cache covers only the addresses fetched so
// far: a fetch beyond it grows it to the next power of two above pc
// (at least minCode entries, at most len(Mem)), so a program that runs
// from its first thousand words costs a few dozen kilobytes, not an
// entry per memory word. Because every fetch compares the entry's word
// against Mem, the cache is sound at any length and against any store
// into code memory (self-modifying programs, Load over old code,
// Reset, direct Mem pokes) without invalidation hooks.
func (m *Machine) predecode(pc int) {
	if pc >= len(m.code) {
		n := max(minCode, len(m.code))
		for n <= pc {
			n *= 2
		}
		code := make([]decoded, min(n, len(m.Mem)))
		copy(code, m.code)
		m.code = code
	}
	m.code[pc] = decode(m.Mem[pc])
}

// remoteMiss reports whether an access to addr misses in remote memory
// and, if so, where execution should vector. A miss marks the word as
// in flight; the retried access finds it arrived. With no handler the
// access completes immediately (latency invisible).
func (m *Machine) remoteMiss(addr int) (int, bool) {
	if m.cfg.RemoteBase == 0 || addr < m.cfg.RemoteBase || m.OnRemoteMiss == nil {
		return 0, false
	}
	if m.arrived[addr] {
		return 0, false
	}
	if m.arrived == nil {
		m.arrived = make(map[int]bool)
	}
	m.arrived[addr] = true
	if pc, redirect := m.OnRemoteMiss(addr, m.cfg.RemoteLatency); redirect {
		return pc, true
	}
	return 0, false
}

func branchTaken(op isa.Op, a, b uint32) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int32(a) < int32(b)
	case isa.BGE:
		return int32(a) >= int32(b)
	}
	panic("unreachable")
}

func aluOp(op isa.Op, a, b uint32) uint32 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SLL:
		return a << (b & 31)
	case isa.SRL:
		return a >> (b & 31)
	case isa.SRA:
		return uint32(int32(a) >> (b & 31))
	case isa.SLT:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case isa.SLTU:
		if a < b {
			return 1
		}
		return 0
	}
	panic("unreachable")
}

func aluImmOp(op isa.Op, a uint32, imm int32) uint32 {
	switch op {
	case isa.ADDI:
		return a + uint32(imm)
	case isa.ANDI:
		return a & uint32(imm)
	case isa.ORI:
		return a | uint32(imm)
	case isa.XORI:
		return a ^ uint32(imm)
	case isa.SLTI:
		if int32(a) < imm {
			return 1
		}
		return 0
	}
	panic("unreachable")
}
