// Package swonly implements the software-only multithreading approach
// of Section 5.1: the compiler generates multiple versions of the
// code, each using a disjoint subset of the register file, so register
// relocation is performed entirely at compile time. No LDRRM hardware
// is needed; the restrictions on context sizes disappear (any
// partition works); the price is code expansion linear in the number
// of contexts.
//
// The package provides the partition planner, the compile-time
// relocation transform (rewriting an assembled program's register
// operands for a given partition), and the MIPS R3000 feasibility
// profile behind the paper's finding that "because of the limited
// number of general registers on the MIPS architecture, the technique
// was not practical for more than two contexts".
package swonly

import (
	"fmt"

	"regreloc/internal/asm"
	"regreloc/internal/isa"
)

// Profile describes a target architecture for compile-time
// partitioning.
type Profile struct {
	Name string
	// Registers is the general register file size.
	Registers int
	// Reserved is the number of registers unavailable to threads
	// (operating system and calling conventions — the paper's footnote
	// on the MIPS).
	Reserved int
	// MinContext is the smallest useful per-thread register set.
	MinContext int
}

// MIPSR3000 is the paper's experimental target: 32 integer registers,
// several reserved for the OS and calling conventions.
var MIPSR3000 = Profile{Name: "MIPS R3000", Registers: 32, Reserved: 8, MinContext: 10}

// RegReloc128 is this repository's machine with a large register file,
// where the software-only scheme supports many contexts.
var RegReloc128 = Profile{Name: "regreloc-128", Registers: 128, Reserved: 4, MinContext: 10}

// MaxContexts returns the number of compile-time contexts the profile
// supports: usable registers divided by the minimum context size.
func (p Profile) MaxContexts() int {
	usable := p.Registers - p.Reserved
	if usable < p.MinContext {
		return 0
	}
	return usable / p.MinContext
}

// Partition is a compile-time division of the register file: one
// contiguous register range per code version. Unlike the hardware
// mechanism there is no power-of-two or alignment constraint.
type Partition struct {
	// Bases[i] is the first register of context i; Sizes[i] its length.
	Bases []int
	Sizes []int
}

// Contexts returns the number of contexts in the partition.
func (p Partition) Contexts() int { return len(p.Bases) }

// Plan divides the profile's usable registers into contexts of the
// requested sizes (in registers), first-come first-served after the
// reserved set. It returns an error if the sizes do not fit — the
// situation the paper hit on the MIPS beyond two contexts.
func Plan(p Profile, sizes []int) (Partition, error) {
	next := p.Reserved
	var out Partition
	for i, s := range sizes {
		if s < 1 {
			return Partition{}, fmt.Errorf("swonly: context %d has invalid size %d", i, s)
		}
		if next+s > p.Registers {
			return Partition{}, fmt.Errorf(
				"swonly: context %d (%d registers) does not fit in %s: %d of %d registers already used",
				i, s, p.Name, next, p.Registers)
		}
		out.Bases = append(out.Bases, next)
		out.Sizes = append(out.Sizes, s)
		next += s
	}
	return out, nil
}

// Relocate rewrites an assembled program so that every live register
// operand r becomes base+r — compile-time register relocation. It
// fails if any operand would leave [base, base+size) or exceed the
// operand field width; this mirrors the compiler's guarantee that each
// code version touches only its own subset.
func Relocate(p *asm.Program, base, size int) (*asm.Program, error) {
	out := &asm.Program{
		Words:   make([]isa.Word, len(p.Words)),
		Symbols: p.Symbols,
		Source:  p.Source,
		Data:    p.Data,
	}
	for addr, w := range p.Words {
		if p.IsData(addr) || p.IsPadding(addr) {
			out.Words[addr] = w
			continue
		}
		in := isa.Decode(w)
		usesRd, usesRs1, usesRs2, _ := isa.RegisterFields(in.Op)
		shift := func(field string, used bool, v int) (int, error) {
			if !used {
				return v, nil
			}
			if v >= size {
				return 0, fmt.Errorf("swonly: addr %d: %s operand r%d exceeds context size %d",
					addr, field, v, size)
			}
			nv := base + v
			if nv >= 1<<isa.OperandBits {
				return 0, fmt.Errorf("swonly: addr %d: relocated register r%d exceeds the %d-bit operand field",
					addr, nv, isa.OperandBits)
			}
			return nv, nil
		}
		var err error
		if in.Rd, err = shift("rd", usesRd, in.Rd); err != nil {
			return nil, err
		}
		if in.Rs1, err = shift("rs1", usesRs1, in.Rs1); err != nil {
			return nil, err
		}
		if in.Rs2, err = shift("rs2", usesRs2, in.Rs2); err != nil {
			return nil, err
		}
		out.Words[addr] = isa.Encode(in)
	}
	return out, nil
}
