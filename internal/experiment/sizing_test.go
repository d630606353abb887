package experiment

import (
	"fmt"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
)

// TestSizingProgramsLoadAtInferredSize: the loader accepts every
// program the experiment's generator can emit at the size the loader
// itself infers, including the halting half, whose high-register
// epilogue is dead only interprocedurally.
func TestSizingProgramsLoadAtInferredSize(t *testing.T) {
	k := kernel.New(machine.New(machine.Config{}), alloc.NewBitmap(128, 64, alloc.FlexibleCosts))
	for live := 2; live <= 8; live++ {
		for high := 20; high <= 31; high++ {
			for _, halting := range []bool{false, true} {
				src := sizingProgram(live, high, halting)
				name := fmt.Sprintf("live=%d high=%d halting=%t", live, high, halting)
				req, err := k.InferUserRequirement(src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := k.LoadUserChecked(src, req); err != nil {
					t.Errorf("%s: rejected at its inferred size %d: %v", name, req, err)
				}
			}
		}
	}
}

func TestContextSizingRunsEndToEnd(t *testing.T) {
	e, ok := Get("context-sizing")
	if !ok {
		t.Fatal("context-sizing not registered")
	}
	r := e.Run(7, Quick)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	panels := r.Panels()
	if len(panels) != 2 || panels[0] != "resident" || panels[1] != "utilization" {
		t.Fatalf("panels = %v", panels)
	}
}

func TestContextSizingInferredDominates(t *testing.T) {
	e, _ := Get("context-sizing")
	r := e.Run(7, Quick)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	strictly := false
	for _, f := range []int{64, 128, 192, 256} {
		d, ok1 := r.Find("resident", "declared", 0, f)
		i, ok2 := r.Find("resident", "inferred", 0, f)
		if !ok1 || !ok2 {
			t.Fatalf("missing resident points for F=%d", f)
		}
		if i.Eff < d.Eff {
			t.Errorf("F=%d: inferred residency %.0f < declared %.0f", f, i.Eff, d.Eff)
		}
		if i.Eff > d.Eff {
			strictly = true
		}
		du, ok1 := r.Find("utilization", "declared", 16, f)
		iu, ok2 := r.Find("utilization", "inferred", 16, f)
		if !ok1 || !ok2 {
			t.Fatalf("missing utilization points for F=%d", f)
		}
		if iu.Eff < du.Eff {
			t.Errorf("F=%d: inferred utilization %.3f < declared %.3f", f, iu.Eff, du.Eff)
		}
	}
	if !strictly {
		t.Error("inferred sizing never packed strictly more residents than declared")
	}
}

func TestContextSizingDeterministic(t *testing.T) {
	e, _ := Get("context-sizing")
	a, b := e.Run(7, Quick), e.Run(7, Quick)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}
