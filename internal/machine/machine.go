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
	// MemWords is the data/program memory size in words (default 64Ki).
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
		c.MemWords = 1 << 16
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

	// code / codeWords form the predecode cache: code[a] is the decoded
	// form of the word codeWords[a]. Step validates an entry by comparing
	// codeWords[a] against Mem[a], so the cache is sound against any
	// store into code memory (self-modifying programs, Load over old
	// code, Reset, direct Mem pokes in tests) without invalidation
	// hooks. The zero entry is valid for a zero word because
	// isa.Decode(0) is the zero Instr.
	code      []isa.Instr
	codeWords []uint32

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
		cfg:       cfg,
		RF:        regfile.New(cfg.Registers, cfg.Mode),
		Mem:       make([]uint32, cfg.MemWords),
		code:      make([]isa.Instr, cfg.MemWords),
		codeWords: make([]uint32, cfg.MemWords),
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
// predecode cache is kept. fetch checks each entry against Mem, so an
// entry left by an earlier program is decoded again on first use.
func (m *Machine) Reset() {
	mem := m.Mem
	if len(mem) == m.cfg.MemWords {
		clear(mem)
	} else {
		mem = make([]uint32, m.cfg.MemWords)
	}
	m.RF.Reset()
	m.RF.SetMultiRRM(m.cfg.MultiRRM)
	*m = Machine{cfg: m.cfg, RF: m.RF, Mem: mem, code: m.code, codeWords: m.codeWords}
}

func (m *Machine) exception(cause error) error {
	return &Exception{PC: m.PC, Cycle: m.cycles, Cause: cause}
}

// readReg relocates and reads a context-relative operand.
func (m *Machine) readReg(operand int) (uint32, error) {
	return m.RF.ReadRel(operand, isa.OperandBits)
}

// writeReg relocates and writes a context-relative operand.
func (m *Machine) writeReg(operand int, v uint32) error {
	return m.RF.WriteRel(operand, isa.OperandBits, v)
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

	if m.PC < 0 || m.PC >= len(m.Mem) {
		return m.exception(fmt.Errorf("instruction fetch outside memory"))
	}
	in := m.fetch(m.PC)
	if m.Trace != nil {
		m.Trace(m.PC, in)
	}
	m.cycles++
	next := m.PC + 1

	// Helpers that read the relocated operands lazily per format.
	var err error
	rd := func() (uint32, error) { return m.readReg(in.Rd) }
	rs1 := func() (uint32, error) { return m.readReg(in.Rs1) }
	rs2 := func() (uint32, error) { return m.readReg(in.Rs2) }

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU:
		a, e1 := rs1()
		b, e2 := rs2()
		if err = firstErr(e1, e2); err != nil {
			break
		}
		err = m.writeReg(in.Rd, aluOp(in.Op, a, b))
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI:
		a, e := rs1()
		if err = e; err != nil {
			break
		}
		err = m.writeReg(in.Rd, aluImmOp(in.Op, a, in.Imm))
	case isa.MOVI:
		err = m.writeReg(in.Rd, uint32(in.Imm))
	case isa.LUI:
		err = m.writeReg(in.Rd, uint32(in.Imm)<<12)
	case isa.LW:
		a, e := rs1()
		if err = e; err != nil {
			break
		}
		addr := int(int32(a) + in.Imm)
		if addr < 0 || addr >= len(m.Mem) {
			err = fmt.Errorf("load outside memory: address %d", addr)
			break
		}
		if pc, miss := m.remoteMiss(addr); miss {
			next = pc
			break
		}
		err = m.writeReg(in.Rd, m.Mem[addr])
	case isa.SW:
		a, e1 := rs1()
		v, e2 := rd() // rd is the source for stores
		if err = firstErr(e1, e2); err != nil {
			break
		}
		addr := int(int32(a) + in.Imm)
		if addr < 0 || addr >= len(m.Mem) {
			err = fmt.Errorf("store outside memory: address %d", addr)
			break
		}
		if pc, miss := m.remoteMiss(addr); miss {
			next = pc
			break
		}
		m.Mem[addr] = v
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		a, e1 := rd() // rd is a source for branches
		b, e2 := rs1()
		if err = firstErr(e1, e2); err != nil {
			break
		}
		if branchTaken(in.Op, a, b) {
			next = m.PC + int(in.Imm)
		}
	case isa.JAL:
		if err = m.writeReg(in.Rd, uint32(m.PC+1)); err != nil {
			break
		}
		next = m.PC + int(in.Imm)
	case isa.JALR:
		t, e := rs1()
		if err = e; err != nil {
			break
		}
		if err = m.writeReg(in.Rd, uint32(m.PC+1)); err != nil {
			break
		}
		next = int(t)
	case isa.JMP:
		t, e := rs1()
		if err = e; err != nil {
			break
		}
		next = int(t)
	case isa.LDRRM, isa.LDRRM2:
		v, e := rs1()
		if err = e; err != nil {
			break
		}
		m.pendingActive = true
		m.pendingCount = m.cfg.LDRRMDelaySlots
		m.pendingVal = v
		m.pendingDouble = in.Op == isa.LDRRM2
	case isa.RDRRM:
		err = m.writeReg(in.Rd, uint32(m.RF.RRM()))
	case isa.MFPSW:
		err = m.writeReg(in.Rd, m.PSW)
	case isa.MTPSW:
		v, e := rs1()
		if err = e; err != nil {
			break
		}
		m.PSW = v
	case isa.FF1:
		v, e := rs1()
		if err = e; err != nil {
			break
		}
		r := uint32(0xffffffff) // -1: no bit set, as the MC88000 flags it
		for i := 0; i < 32; i++ {
			if v&(1<<uint(i)) != 0 {
				r = uint32(i)
				break
			}
		}
		err = m.writeReg(in.Rd, r)
	case isa.FAULT:
		lat, e := rs1()
		if err = e; err != nil {
			break
		}
		if m.OnFault != nil {
			m.OnFault(lat)
		}
		if m.FaultTrap != nil {
			if pc, redirect := m.FaultTrap(lat); redirect {
				next = pc
			}
		}
	default:
		err = fmt.Errorf("invalid opcode %d", in.Op)
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

// fetch returns the decoded instruction at word address pc via the
// predecode cache. A stale entry (the memory word changed since it was
// decoded) is re-decoded and re-cached; the common case is a single
// word compare. pc is known in-bounds for Mem; the cache is bypassed
// if a caller swapped in a larger Mem slice.
func (m *Machine) fetch(pc int) isa.Instr {
	w := m.Mem[pc]
	if pc >= len(m.code) {
		return isa.Decode(isa.Word(w))
	}
	if m.codeWords[pc] != w {
		m.code[pc] = isa.Decode(isa.Word(w))
		m.codeWords[pc] = w
	}
	return m.code[pc]
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

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
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
