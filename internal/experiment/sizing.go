package experiment

import (
	"fmt"
	"strings"

	"regreloc/internal/alloc"
	"regreloc/internal/analysis"
	"regreloc/internal/analytic"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
	"regreloc/internal/rng"
)

// sizingProgram builds one synthetic thread program for the sizing
// experiment. Each program keeps `live` working registers (r4 up), then
// calls a helper. Half the population calls a helper that never
// returns (it halts the thread), with an epilogue touching a high
// register after the call: a flat scan — and even the intraprocedural
// analyzer — must budget for the epilogue, but the interprocedural
// analyzer proves it dead. The other half calls a returning helper, so
// both sizings agree there.
func sizingProgram(live, high int, halting bool) string {
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < live; i++ {
		fmt.Fprintf(&b, "\tmovi r%d, %d\n", 4+i, i+1)
	}
	b.WriteString("\tjal r14, helper\n")
	fmt.Fprintf(&b, "\tmovi r%d, 1\n", high) // post-call epilogue
	b.WriteString("\thalt\n")
	b.WriteString("helper:\n")
	if halting {
		b.WriteString("\thalt\n")
	} else {
		b.WriteString("\taddi r4, r4, 1\n\tjmp r14\n")
	}
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "context-sizing",
		Title: "Section 2.4: declared vs analyzer-inferred context sizing",
		Description: "Closes the paper's software-sizing loop: context sizes " +
			"come either from a conservative flat declaration " +
			"(the analyzer's FlatRequirement, every code word counted) or from the loader's " +
			"interprocedural sizing (kernel.InferUserRequirement), both rounded " +
			"to the power-of-two contexts the allocator needs. The resident " +
			"panel counts how many of the thread population fit a register " +
			"file of F registers at once (L column holds F); the utilization " +
			"panel cross-checks with the Section 3.4 analytic model at the " +
			"resulting context counts.",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{
				ID:    "context-sizing",
				Title: "Section 2.4: declared vs analyzer-inferred context sizing",
				Notes: []string{
					"Paper: 'the compiler must determine the number of registers",
					"required by each thread' — smaller inferred contexts pack",
					"more resident threads per file, hence higher utilization",
					"whenever the declared sizing leaves the model below N*.",
				},
			}
			src := rng.New(rng.DeriveSeed(seed, 0x512e))
			n := scale.Threads
			if n > 64 {
				n = 64
			}

			k := kernel.New(machine.New(machine.Config{}), alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
			declared := make([]int, 0, n)
			inferred := make([]int, 0, n)
			for i := 0; i < n; i++ {
				live := src.IntRange(2, 8)
				high := src.IntRange(20, 31)
				text := sizingProgram(live, high, i%2 == 0)
				res, err := analysis.AnalyzeSource(text, analysis.Options{})
				if err != nil {
					r.Err = fmt.Errorf("sizing program %d: %w", i, err)
					return r
				}
				d := res.FlatRequirement()
				inf, err := k.InferUserRequirement(text)
				if err != nil {
					r.Err = fmt.Errorf("sizing program %d: %w", i, err)
					return r
				}
				if inf > d {
					r.Err = fmt.Errorf("sizing program %d: inferred %d exceeds flat %d", i, inf, d)
					return r
				}
				declared = append(declared, alloc.RoundContextSize(d, 4, 64))
				inferred = append(inferred, alloc.RoundContextSize(inf, 4, 64))
			}

			resident := func(sizes []int, file int) int {
				used, count := 0, 0
				for _, c := range sizes {
					if used+c > file {
						break
					}
					used += c
					count++
				}
				return count
			}
			mean := func(sizes []int) float64 {
				sum := 0
				for _, c := range sizes {
					sum += c
				}
				return float64(sum) / float64(len(sizes))
			}

			files := []int{64, 128, 192, 256}
			for _, f := range files {
				r.Points = append(r.Points,
					Measurement{Panel: "resident", Arch: "declared", L: f, F: f,
						Eff: float64(resident(declared, f))},
					Measurement{Panel: "resident", Arch: "inferred", L: f, F: f,
						Eff: float64(resident(inferred, f))},
				)
			}

			// Analytic cross-check: the Section 3.4 model at the context
			// counts each sizing sustains (R=16, L=128, S = mean context
			// size + fixed load overhead, per sizing).
			sizings := []struct {
				arch  string
				sizes []int
			}{{"declared", declared}, {"inferred", inferred}}
			for _, f := range files {
				for _, s := range sizings {
					m := mean(s.sizes)
					params := analytic.NewParams(16, 128, m+10)
					nCtx := analytic.ResidentContexts(f, m)
					r.Points = append(r.Points, Measurement{
						Panel: "utilization", Arch: s.arch, R: 16, L: f, F: f,
						Eff: params.Efficiency(nCtx),
					})
				}
			}

			r.Notes = append(r.Notes,
				fmt.Sprintf("population %d: mean context %.1f regs declared vs %.1f inferred",
					n, mean(declared), mean(inferred)))
			return r
		},
	})
}
