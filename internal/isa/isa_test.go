package isa

import (
	"testing"
	"testing/quick"
)

func TestOpNamesRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		got, ok := OpByName[name]
		if !ok || got != op {
			t.Errorf("OpByName[%q] = %v, %v", name, got, ok)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Errorf("invalid op String = %q", Op(200).String())
	}
}

func TestEncodeDecodeRoundTripAllFormats(t *testing.T) {
	cases := []Instr{
		{Op: NOP},
		{Op: HALT},
		{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: SUB, Rd: 63, Rs1: 63, Rs2: 63},
		{Op: ADDI, Rd: 5, Rs1: 6, Imm: -8192},
		{Op: ADDI, Rd: 5, Rs1: 6, Imm: 8191},
		{Op: MOVI, Rd: 2, Imm: 1000},
		{Op: LUI, Rd: 2, Imm: 0xfffff},
		{Op: LW, Rd: 1, Rs1: 2, Imm: -4},
		{Op: SW, Rd: 1, Rs1: 2, Imm: 100},
		{Op: BEQ, Rd: 3, Rs1: 4, Imm: -100},
		{Op: JAL, Rd: 0, Imm: 42},
		{Op: JALR, Rd: 0, Rs1: 7},
		{Op: JMP, Rs1: 9},
		{Op: LDRRM, Rs1: 2},
		{Op: RDRRM, Rd: 4},
		{Op: LDRRM2, Rs1: 3},
		{Op: MFPSW, Rd: 1},
		{Op: MTPSW, Rs1: 1},
		{Op: FF1, Rd: 2, Rs1: 3},
		{Op: FAULT, Rs1: 5},
	}
	for _, in := range cases {
		got := Decode(Encode(in))
		// Decode always extracts all fields; compare only live ones.
		if got.Op != in.Op {
			t.Errorf("%v: op %v", in, got.Op)
			continue
		}
		usesRd, usesRs1, usesRs2, _ := RegisterFields(in.Op)
		if usesRd && got.Rd != in.Rd {
			t.Errorf("%s: rd %d != %d", Disassemble(in), got.Rd, in.Rd)
		}
		if usesRs1 && got.Rs1 != in.Rs1 {
			t.Errorf("%s: rs1 %d != %d", Disassemble(in), got.Rs1, in.Rs1)
		}
		if usesRs2 && got.Rs2 != in.Rs2 {
			t.Errorf("%s: rs2 %d != %d", Disassemble(in), got.Rs2, in.Rs2)
		}
		if got.Imm != in.Imm {
			t.Errorf("%s: imm %d != %d", Disassemble(in), got.Imm, in.Imm)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	bad := []Instr{
		{Op: ADD, Rd: 64},
		{Op: ADD, Rs1: -1},
		{Op: ADD, Rs2: 100},
		{Op: ADDI, Imm: 8192},
		{Op: ADDI, Imm: -8193},
		{Op: LUI, Imm: 1 << 20},
		{Op: LUI, Imm: -1},
		{Op: ADD, Imm: 200},
		{Op: Op(99)},
	}
	for _, in := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%+v) did not panic", in)
				}
			}()
			Encode(in)
		}()
	}
}

func TestFixedFieldPositions(t *testing.T) {
	// The whole point of the paper's hardware: operand fields are at
	// fixed positions so the decode-stage OR can relocate them without
	// knowing the opcode. Verify the layout directly.
	w := Encode(Instr{Op: ADD, Rd: 0b101010, Rs1: 0b010101, Rs2: 0b110011})
	if got := int(w >> 20 & 63); got != 0b101010 {
		t.Errorf("rd field = %b", got)
	}
	if got := int(w >> 14 & 63); got != 0b010101 {
		t.Errorf("rs1 field = %b", got)
	}
	if got := int(w >> 8 & 63); got != 0b110011 {
		t.Errorf("rs2 field = %b", got)
	}
}

func TestSignExtension(t *testing.T) {
	if in := Decode(Encode(Instr{Op: ADDI, Imm: -1})); in.Imm != -1 {
		t.Errorf("imm14 -1 decoded as %d", in.Imm)
	}
	if in := Decode(Encode(Instr{Op: ADD, Imm: -1})); in.Imm != -1 {
		t.Errorf("imm8 -1 decoded as %d", in.Imm)
	}
	if in := Decode(Encode(Instr{Op: LUI, Imm: 0xfffff})); in.Imm != 0xfffff {
		t.Errorf("lui imm decoded as %d (must be unsigned)", in.Imm)
	}
}

func TestEncodeDecodePropertyRRR(t *testing.T) {
	f := func(rd, rs1, rs2 uint8) bool {
		in := Instr{Op: XOR, Rd: int(rd % 64), Rs1: int(rs1 % 64), Rs2: int(rs2 % 64)}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodePropertyImm14(t *testing.T) {
	f := func(rd, rs1 uint8, imm int16) bool {
		v := int32(imm) % 8192
		in := Instr{Op: SLTI, Rd: int(rd % 64), Rs1: int(rs1 % 64), Imm: v}
		out := Decode(Encode(in))
		return out.Op == in.Op && out.Rd == in.Rd && out.Rs1 == in.Rs1 && out.Imm == in.Imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleFormats(t *testing.T) {
	cases := map[string]Instr{
		"nop":             {Op: NOP},
		"add r1, r2, r3":  {Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, -5": {Op: ADDI, Rd: 1, Rs1: 2, Imm: -5},
		"movi r4, 77":     {Op: MOVI, Rd: 4, Imm: 77},
		"lw r1, 8(r2)":    {Op: LW, Rd: 1, Rs1: 2, Imm: 8},
		"sw r1, -4(r2)":   {Op: SW, Rd: 1, Rs1: 2, Imm: -4},
		"beq r1, r2, 10":  {Op: BEQ, Rd: 1, Rs1: 2, Imm: 10},
		"jal r0, 5":       {Op: JAL, Rd: 0, Imm: 5},
		"jalr r0, r3":     {Op: JALR, Rd: 0, Rs1: 3},
		"jmp r7":          {Op: JMP, Rs1: 7},
		"ldrrm r2":        {Op: LDRRM, Rs1: 2},
		"rdrrm r5":        {Op: RDRRM, Rd: 5},
		"mfpsw r1":        {Op: MFPSW, Rd: 1},
		"ff1 r2, r3":      {Op: FF1, Rd: 2, Rs1: 3},
	}
	for want, in := range cases {
		if got := Disassemble(in); got != want {
			t.Errorf("Disassemble = %q want %q", got, want)
		}
	}
}

func TestRegisterFields(t *testing.T) {
	// sw reads rd, does not write it.
	if _, _, _, w := RegisterFields(SW); w {
		t.Error("sw must not write rd")
	}
	if _, _, _, w := RegisterFields(LW); !w {
		t.Error("lw must write rd")
	}
	if rd, rs1, rs2, w := RegisterFields(ADD); !rd || !rs1 || !rs2 || !w {
		t.Error("add uses all fields and writes rd")
	}
	if rd, rs1, _, _ := RegisterFields(BEQ); !rd || !rs1 {
		t.Error("beq reads rd and rs1")
	}
	if rd, rs1, _, _ := RegisterFields(LDRRM); rd || !rs1 {
		t.Error("ldrrm reads only rs1")
	}
	if rd, _, _, w := RegisterFields(HALT); rd || w {
		t.Error("halt uses no registers")
	}
}

func TestMaxContextSize(t *testing.T) {
	if MaxContextSize != 64 {
		t.Errorf("MaxContextSize = %d; paper examples assume 2^6", MaxContextSize)
	}
}

// FuzzDecode: any word decodes and disassembles without a panic, a
// word with a valid opcode is the encoding of its decode, and an
// instruction built from the fuzzed fields survives Encode then Decode
// on every field its format encodes. Seeds are under testdata/fuzz.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint32, rs2 uint8, imm int32) {
		in := Decode(Word(w))
		_ = Disassemble(in)
		if in.Op >= numOps {
			return
		}
		if back := Encode(in); back != Word(w) {
			t.Fatalf("%#08x decodes to %s, which encodes to %#08x", w, Disassemble(in), back)
		}

		// Replace rs2 and the immediate with fuzzed values cut to the
		// format's field: an encoding with an immediate overlays rs2
		// (imm14) or rs1 and rs2 (lui's imm20), so those are the fields
		// the format does not encode.
		x := in
		x.Rs2 = int(rs2 & fieldMax)
		encRs1, encRs2 := true, false
		switch FormatOf(x.Op) {
		case FormatRI, FormatRRI, FormatMem, FormatBranch, FormatJal:
			if x.Op == LUI {
				x.Imm = imm & (1<<20 - 1)
				encRs1 = false
			} else {
				x.Imm = imm << 18 >> 18
			}
		default:
			x.Imm = imm << 24 >> 24
			encRs2 = true
		}
		got := Decode(Encode(x))
		if got.Op != x.Op || got.Rd != x.Rd || got.Imm != x.Imm ||
			encRs1 && got.Rs1 != x.Rs1 || encRs2 && got.Rs2 != x.Rs2 {
			t.Fatalf("%+v round-trips to %+v", x, got)
		}
	})
}
