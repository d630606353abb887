package analysis_test

import (
	"maps"
	"testing"

	"regreloc/internal/analysis"
	"regreloc/internal/asm"
	"regreloc/internal/isa"
)

// FuzzAnalyzeSource: any source that assembles analyzes without a
// panic, at a fuzzed context size and MultiRRM setting, and its RR101
// and RR301 findings per address and its FlatRequirement equal
// flatReference's. Seeds are under testdata/fuzz.
func FuzzAnalyzeSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, ctx uint8, multiRRM bool) {
		if len(src) > 4096 {
			return // keep each run short; the assembler bounds the image
		}
		res, err := analysis.AnalyzeSource(src, analysis.Options{
			ContextSize: int(ctx), MultiRRM: multiRRM, Interprocedural: true,
		})
		if err != nil {
			return
		}
		want, flat := flatReference(asm.MustAssemble(src), int(ctx), multiRRM)
		got := map[int]int{}
		for _, d := range append(res.Diags, res.Suppressed...) {
			if d.Code == analysis.CodeOutOfContext || d.Code == analysis.CodeUnreachable {
				got[d.Addr]++
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("out-of-context operands per address = %v, flat reference %v", got, want)
		}
		if res.FlatRequirement() != flat {
			t.Errorf("FlatRequirement = %d, flat reference %d", res.FlatRequirement(), flat)
		}
	})
}

// flatReference decodes every word that is neither .word data nor .org
// padding and counts, per address, the operand fields the opcode uses
// that fall outside a ctx-register context (none when ctx is 0); under
// MultiRRM the selector bit is masked first. It also returns one more
// than the highest such operand.
func flatReference(p *asm.Program, ctx int, multiRRM bool) (map[int]int, int) {
	out, high := map[int]int{}, -1
	for a, w := range p.Words {
		if p.IsData(a) || p.IsPadding(a) {
			continue
		}
		in := isa.Decode(w)
		rd, rs1, rs2, _ := isa.RegisterFields(in.Op)
		used := [3]bool{rd, rs1, rs2}
		for i, v := range [3]int{in.Rd, in.Rs1, in.Rs2} {
			if !used[i] {
				continue
			}
			if multiRRM {
				v &^= 1 << (isa.OperandBits - 1)
			}
			high = max(high, v)
			if ctx > 0 && v >= ctx {
				out[a]++
			}
		}
	}
	return out, high + 1
}
