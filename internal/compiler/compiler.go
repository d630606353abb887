// Package compiler implements the compiler support the paper requires
// (Section 2.4): determining the number of registers each thread needs
// by traversing its call graph, and advising on the register/context-size
// tradeoff — whether the marginal benefit of an extra register is
// worth doubling the context size (the paper's 17-versus-16 example).
// The other half of Section 2.4, checking a thread's assembled code
// against its context and sizing the context from that code, belongs
// to the loader: kernel.LoadUserChecked and kernel.InferUserRequirement.
package compiler

import (
	"fmt"
	"math"
	"sort"

	"regreloc/internal/alloc"
	"regreloc/internal/analytic"
)

// Function describes one compiled function's register behaviour.
type Function struct {
	Name string
	// Live is the number of registers live across this function's call
	// sites (they stay occupied while callees run).
	Live int
	// Scratch is the number of additional registers used only between
	// calls (callees may reuse them, so they do not stack).
	Scratch int
	// Calls lists callee names.
	Calls []string
}

// CallGraph is a program's call graph.
type CallGraph struct {
	funcs map[string]*Function
}

// NewCallGraph returns an empty call graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{funcs: make(map[string]*Function)}
}

// Add registers a function. It panics on duplicates or negative
// register counts — compiler bugs, not user input.
func (g *CallGraph) Add(f Function) {
	if f.Live < 0 || f.Scratch < 0 {
		panic(fmt.Sprintf("compiler: negative register counts in %q", f.Name))
	}
	if _, dup := g.funcs[f.Name]; dup {
		panic(fmt.Sprintf("compiler: duplicate function %q", f.Name))
	}
	g.funcs[f.Name] = &f
}

// RecursionError is reported when a thread's call graph contains a cycle,
// which makes its register requirement unbounded without spilling.
type RecursionError struct{ Cycle []string }

func (e *RecursionError) Error() string {
	return fmt.Sprintf("compiler: recursive call chain %v requires spilling", e.Cycle)
}

// UnknownCalleeError is reported for calls to unregistered functions.
type UnknownCalleeError struct{ Caller, Callee string }

func (e *UnknownCalleeError) Error() string {
	return fmt.Sprintf("compiler: %q calls unknown function %q", e.Caller, e.Callee)
}

// ThreadRegisters computes the number of registers a thread rooted at
// entry requires: the maximum over all call paths of the live
// registers stacked along the path plus the leaf's scratch use —
// exactly the call-graph traversal the paper says the compiler
// performs. reserved is added for the runtime's reserved registers
// (PC/PSW/NextRRM/save pointer).
func (g *CallGraph) ThreadRegisters(entry string, reserved int) (int, error) {
	memo := make(map[string]int)
	onPath := make(map[string]bool)
	var path []string

	var visit func(name string) (int, error)
	visit = func(name string) (int, error) {
		f, ok := g.funcs[name]
		if !ok {
			caller := "<entry>"
			if len(path) > 0 {
				caller = path[len(path)-1]
			}
			return 0, &UnknownCalleeError{Caller: caller, Callee: name}
		}
		if onPath[name] {
			return 0, &RecursionError{Cycle: append(append([]string{}, path...), name)}
		}
		if v, done := memo[name]; done {
			return v, nil
		}
		onPath[name] = true
		path = append(path, name)
		defer func() {
			delete(onPath, name)
			path = path[:len(path)-1]
		}()

		need := f.Live + f.Scratch // leaf view: everything at once
		for _, callee := range f.Calls {
			sub, err := visit(callee)
			if err != nil {
				return 0, err
			}
			if v := f.Live + sub; v > need {
				need = v
			}
		}
		memo[name] = need
		return need, nil
	}

	n, err := visit(entry)
	if err != nil {
		return 0, err
	}
	return n + reserved, nil
}

// MarginalBenefit models the diminishing per-thread speedup of extra
// registers, calibrated to the studies the paper cites: Bradlee et al.
// found a 12% average execution-time degradation going from 32 to 16
// registers and only ~1% improvement beyond 32. Benefit(c) returns the
// thread's relative speed with c registers (1.0 at 32 registers).
type MarginalBenefit struct{}

// Speed returns the relative single-thread speed with c usable
// registers, normalized to 1.0 at 32.
func (MarginalBenefit) Speed(c int) float64 {
	switch {
	case c <= 0:
		return 0
	case c >= 32:
		return 1.01 // the ~1% available beyond 32 registers
	case c >= 16:
		// Linear from 0.88 at 16 to 1.0 at 32 (the cited 12% gap).
		return 0.88 + 0.12*float64(c-16)/16
	default:
		// Below 16 registers spill costs grow sharply; a superlinear
		// decay keeps halving the context from ever paying for itself
		// through density alone (Speed(c/2) < Speed(c)/2 here).
		return 0.88 * math.Pow(float64(c)/16, 1.3)
	}
}

// Advice is the outcome of the context-size tradeoff analysis.
type Advice struct {
	// Registers is the recommended per-thread register count.
	Registers int
	// ContextSize is the resulting power-of-two context size.
	ContextSize int
	// Throughput is the predicted relative node throughput (thread
	// speed x processor efficiency) for the recommendation.
	Throughput float64
	// Alternatives lists the evaluated options, best first.
	Alternatives []Advice
}

// AdviseContextSize evaluates the paper's Section 2.4 tradeoff: a
// thread's compiler-determined requirement `needed` may straddle a
// power-of-two boundary; trimming registers shrinks its context,
// letting more contexts stay resident and raising processor
// efficiency, at the price of slower single-thread code. The decision
// combines the MarginalBenefit curve with the analytic efficiency
// model for the given machine parameters.
func AdviseContextSize(needed, fileSize int, params analytic.Params) Advice {
	if needed < 1 {
		panic("compiler: invalid requirement")
	}
	mb := MarginalBenefit{}
	var opts []Advice
	// Candidate register counts: the requirement itself, plus a trim to
	// the next power-of-two boundary below it — the paper's scenario of
	// a thread just past a boundary (17 vs 16 registers). Deeper trims
	// are not considered: below one boundary the spill penalty dominates.
	candidates := map[int]bool{needed: true}
	for size := 4; size <= 64; size *= 2 {
		if size < needed && size*2 >= needed {
			candidates[size] = true
		}
	}
	for c := range candidates {
		size := alloc.RoundContextSize(c, 4, 64)
		n := analytic.ResidentContexts(fileSize, float64(size))
		eff := params.Efficiency(n)
		speed := mb.Speed(c) / mb.Speed(needed) // relative to full allocation
		opts = append(opts, Advice{
			Registers:   c,
			ContextSize: size,
			Throughput:  eff * speed,
		})
	}
	sort.Slice(opts, func(i, j int) bool {
		if opts[i].Throughput != opts[j].Throughput {
			return opts[i].Throughput > opts[j].Throughput
		}
		return opts[i].Registers > opts[j].Registers
	})
	best := opts[0]
	best.Alternatives = opts
	return best
}
