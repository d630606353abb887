package compiler

import (
	"errors"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/analytic"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
)

func graph() *CallGraph {
	g := NewCallGraph()
	g.Add(Function{Name: "main", Live: 3, Scratch: 2, Calls: []string{"compute", "log"}})
	g.Add(Function{Name: "compute", Live: 4, Scratch: 3, Calls: []string{"leafA", "leafB"}})
	g.Add(Function{Name: "log", Live: 1, Scratch: 2})
	g.Add(Function{Name: "leafA", Live: 0, Scratch: 6})
	g.Add(Function{Name: "leafB", Live: 2, Scratch: 1})
	return g
}

func TestThreadRegisters(t *testing.T) {
	g := graph()
	// Deepest path: main.Live(3) + compute.Live(4) + leafA(0+6) = 13.
	// Other paths: main(3)+compute(4)+leafB(3)=10; main(3)+log(3)=6;
	// main leaf view 3+2=5; compute leaf view inside main: 3+7=10.
	got, err := g.ThreadRegisters("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 {
		t.Errorf("ThreadRegisters = %d want 13", got)
	}
	// Reserved registers add directly.
	got, _ = g.ThreadRegisters("main", 4)
	if got != 17 {
		t.Errorf("with reserved = %d want 17", got)
	}
}

func TestThreadRegistersLeafOnly(t *testing.T) {
	g := NewCallGraph()
	g.Add(Function{Name: "leaf", Live: 2, Scratch: 5})
	got, err := g.ThreadRegisters("leaf", 0)
	if err != nil || got != 7 {
		t.Errorf("leaf = %d, %v", got, err)
	}
}

func TestRequirementMatchesDeclared(t *testing.T) {
	// The call-graph number and the loader's measured requirement agree
	// for a leaf whose code uses exactly its declaration: r4..r6 above
	// the runtime's reserved registers.
	g := NewCallGraph()
	g.Add(Function{Name: "main", Live: 2, Scratch: 1})
	declared, err := g.ThreadRegisters("main", kernel.NumReserved)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(machine.New(machine.Config{}), alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	const src = "main:\n\tadd r6, r4, r5\n\thalt\n"
	measured, err := k.InferUserRequirement(src)
	if err != nil {
		t.Fatal(err)
	}
	if measured != declared {
		t.Errorf("loader measures %d registers, call graph declares %d", measured, declared)
	}
	if _, err := k.LoadUserChecked(src, declared); err != nil {
		t.Errorf("declared %d rejected: %v", declared, err)
	}
}

func TestDeclaredSizeIgnoresDeadCode(t *testing.T) {
	// The r20 reference after halt is unreachable; only the live body
	// counts against the call-graph declaration, matching
	// ThreadRegisters' view.
	g := NewCallGraph()
	g.Add(Function{Name: "leaf", Live: 2, Scratch: 1})
	declared, err := g.ThreadRegisters("leaf", kernel.NumReserved)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(machine.New(machine.Config{}), alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	const src = "leaf:\n\tadd r6, r4, r5\n\thalt\n\tadd r20, r4, r5\n"
	if _, err := k.LoadUserChecked(src, declared); err != nil {
		t.Fatalf("dead code charged against declared %d: %v", declared, err)
	}
	measured, err := k.InferUserRequirement(src)
	if err != nil {
		t.Fatal(err)
	}
	if measured != declared {
		t.Errorf("loader measures %d registers, call graph declares %d", measured, declared)
	}
}

func TestSharedCalleeMemoized(t *testing.T) {
	// Diamond: both paths reach the same callee; must still terminate
	// and compute the max path.
	g := NewCallGraph()
	g.Add(Function{Name: "top", Live: 1, Calls: []string{"a", "b"}})
	g.Add(Function{Name: "a", Live: 5, Calls: []string{"shared"}})
	g.Add(Function{Name: "b", Live: 2, Calls: []string{"shared"}})
	g.Add(Function{Name: "shared", Scratch: 4})
	got, err := g.ThreadRegisters("top", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 { // top(1) + a(5) + shared(4)
		t.Errorf("diamond = %d want 10", got)
	}
}

func TestRecursionDetected(t *testing.T) {
	g := NewCallGraph()
	g.Add(Function{Name: "f", Live: 1, Calls: []string{"g"}})
	g.Add(Function{Name: "g", Live: 1, Calls: []string{"f"}})
	_, err := g.ThreadRegisters("f", 0)
	var re *RecursionError
	if !errors.As(err, &re) {
		t.Fatalf("recursion not detected: %v", err)
	}
	if len(re.Cycle) < 2 {
		t.Errorf("cycle = %v", re.Cycle)
	}
}

func TestUnknownCallee(t *testing.T) {
	g := NewCallGraph()
	g.Add(Function{Name: "f", Calls: []string{"ghost"}})
	_, err := g.ThreadRegisters("f", 0)
	var ue *UnknownCalleeError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown callee not detected: %v", err)
	}
	if ue.Callee != "ghost" {
		t.Errorf("callee = %q", ue.Callee)
	}
	if _, err := g.ThreadRegisters("phantom", 0); err == nil {
		t.Error("unknown entry accepted")
	}
}

func TestAddPanics(t *testing.T) {
	g := NewCallGraph()
	g.Add(Function{Name: "f"})
	for _, f := range []Function{{Name: "f"}, {Name: "g", Live: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%+v) did not panic", f)
				}
			}()
			g.Add(f)
		}()
	}
}

func TestMarginalBenefitShape(t *testing.T) {
	mb := MarginalBenefit{}
	// Monotone nondecreasing, diminishing, calibrated at the cited
	// points: 12% gap between 16 and 32, ~1% beyond 32.
	prev := 0.0
	for c := 0; c <= 64; c++ {
		s := mb.Speed(c)
		if s < prev {
			t.Fatalf("Speed(%d) = %.3f < Speed(%d) = %.3f", c, s, c-1, prev)
		}
		prev = s
	}
	if g := mb.Speed(32) - mb.Speed(16); g < 0.10 || g > 0.14 {
		t.Errorf("16->32 gap = %.3f want ~0.12", g)
	}
	if g := mb.Speed(64) - mb.Speed(32); g > 0.02 {
		t.Errorf("beyond-32 gain = %.3f want ~0.01", g)
	}
}

func TestAdvise17RegisterExample(t *testing.T) {
	// The paper's example: a thread that would use 17 registers needs a
	// 32-register context; trimming to 16 frees 15 registers for more
	// contexts. In a latency-dominated regime the trim must win.
	params := analytic.NewParams(16, 1024, 6)
	adv := AdviseContextSize(17, 128, params)
	if adv.Registers != 16 || adv.ContextSize != 16 {
		t.Errorf("advice = %d registers / context %d, want trim to 16/16", adv.Registers, adv.ContextSize)
	}
	if len(adv.Alternatives) < 2 {
		t.Error("no alternatives evaluated")
	}
	// Alternatives are sorted best-first.
	for i := 1; i < len(adv.Alternatives); i++ {
		if adv.Alternatives[i].Throughput > adv.Alternatives[i-1].Throughput {
			t.Error("alternatives not sorted")
		}
	}
}

func TestAdviseKeepsRegistersWhenSaturated(t *testing.T) {
	// With short latencies the processor saturates even with few
	// contexts, so trimming registers would only slow threads down.
	params := analytic.NewParams(512, 16, 6)
	adv := AdviseContextSize(17, 128, params)
	if adv.Registers != 17 {
		t.Errorf("saturated advice trims to %d registers; should keep 17", adv.Registers)
	}
}

func TestAdviseExactBoundaryNoTrim(t *testing.T) {
	// 16 registers already fit a 16-register context: nothing to trim.
	params := analytic.NewParams(16, 1024, 6)
	adv := AdviseContextSize(16, 128, params)
	if adv.Registers != 16 || adv.ContextSize != 16 {
		t.Errorf("advice = %+v", adv)
	}
}

func TestAdvisePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid requirement accepted")
		}
	}()
	AdviseContextSize(0, 128, analytic.NewParams(16, 64, 6))
}
