package regreloc_test

import (
	"strings"
	"testing"

	"regreloc"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	spec := regreloc.CacheFaultWorkload(16, 256, regreloc.PaperContextSizes(), 32, 4000)
	fixed := regreloc.RunNode(regreloc.FixedNode(128, regreloc.NeverUnload, 6), spec, 1)
	flex := regreloc.RunNode(regreloc.FlexibleNode(128, regreloc.NeverUnload, 6), spec, 1)
	if flex.Efficiency <= fixed.Efficiency {
		t.Errorf("flexible %.3f <= fixed %.3f", flex.Efficiency, fixed.Efficiency)
	}
	params := regreloc.NewAnalyticParams(16, 256, 6)
	if params.Saturated() <= 0 || params.SaturationPoint() <= 1 {
		t.Error("analytic params broken")
	}
}

func TestPublicAPIMachineFlow(t *testing.T) {
	m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128})
	prog, err := regreloc.Assemble("movi r1, 5\naddi r2, r1, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m.Load(prog, 0)
	m.RF.SetRRM(32)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(34) != 6 {
		t.Errorf("relocated r2 = %d", m.RF.Read(34))
	}
}

func TestPublicAPIKernelFlow(t *testing.T) {
	m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128})
	k := regreloc.NewKernel(m, regreloc.NewBitmapAllocator(128, 64, regreloc.FlexibleCosts))
	if _, err := k.LoadUserChecked("t0:\n addi r4, r4, 1\n jal r0, yield\n beq r0, r0, t0", 8); err != nil {
		t.Fatal(err)
	}
	th, err := k.Spawn("t0", k.Runtime.Symbols["t0"], 8)
	if err != nil {
		t.Fatal(err)
	}
	k.Link()
	k.Start()
	if err := k.Run(100); err == nil {
		t.Fatal("halted unexpectedly")
	}
	if m.RF.Read(th.Ctx.Base+4) == 0 {
		t.Error("thread made no progress")
	}
}

func TestPublicAPIAllocators(t *testing.T) {
	a := regreloc.NewBitmapAllocator(128, 64, regreloc.FlexibleCosts)
	ctx, ok := a.Alloc(10)
	if !ok || ctx.Size < 10 || ctx.Base%ctx.Size != 0 {
		t.Errorf("ctx = %+v ok = %v", ctx, ok)
	}
	a.Free(ctx)
	if a.FreeRegisters() != 128 {
		t.Errorf("free registers after Free = %d, want 128", a.FreeRegisters())
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	tiny := regreloc.ExperimentScale{Threads: 12, WorkRuns: 40, MinWork: 800}
	rep, ok := regreloc.RunExperiment("figure5", 1, tiny)
	if !ok {
		t.Fatal("figure5 missing")
	}
	if !strings.Contains(regreloc.RenderTable(rep), "F=64") {
		t.Error("table broken")
	}
	if !strings.Contains(regreloc.RenderPlot(rep, "F=128"), "legend") {
		t.Error("plot broken")
	}
	if !strings.Contains(regreloc.RenderSummary(rep), "geomean") {
		t.Error("summary broken")
	}
	if _, ok := regreloc.RunExperiment("nonsense", 1, tiny); ok {
		t.Error("phantom experiment ran")
	}
}

func TestPublicAPICompilerAndChecker(t *testing.T) {
	adv := regreloc.AdviseContextSize(17, 128, regreloc.NewAnalyticParams(16, 1024, 6))
	if adv.Registers != 16 {
		t.Errorf("advice = %+v", adv)
	}
	prog, err := regreloc.Assemble("add r9, r1, r1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	res := regreloc.AnalyzeProgram(prog, regreloc.AnalysisOptions{ContextSize: 8})
	if len(res.Diags) != 1 || res.Diags[0].Code != "RR101" || res.FlatRequirement() != 10 {
		t.Errorf("diagnostics = %v, flat requirement = %d", res.Diags, res.FlatRequirement())
	}
}

func TestPublicAPISoftwareOnly(t *testing.T) {
	if regreloc.ProfileMIPSR3000.MaxContexts() != 2 {
		t.Error("MIPS profile wrong")
	}
	part, err := regreloc.PlanSoftwareContexts(regreloc.ProfileLargeFile, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := regreloc.Assemble("movi r1, 7\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := regreloc.RelocateAtCompileTime(prog, part.Bases[1], part.Sizes[1])
	if err != nil {
		t.Fatal(err)
	}
	m := regreloc.NewMachine(regreloc.MachineConfig{})
	m.Load(rel, 0)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.RF.Read(part.Bases[1]+1) != 7 {
		t.Error("compile-time relocation broken")
	}
}

func TestPublicAPITrace(t *testing.T) {
	rec := regreloc.NewTraceRecorder(0)
	cfg := regreloc.FlexibleNode(64, regreloc.TwoPhaseUnload, 8)
	cfg.Tracer = rec
	spec := regreloc.SyncFaultWorkload(32, 200, regreloc.PaperContextSizes(), 8, 1000)
	res := regreloc.RunNode(cfg, spec, 2)
	if rec.Len() == 0 {
		t.Fatal("nothing traced")
	}
	tl := rec.Timeline(0, res.Full.Total(), 60)
	if !strings.Contains(tl, "legend") {
		t.Error("timeline broken")
	}
}

func TestPublicAPIRelocationModes(t *testing.T) {
	for _, mode := range []regreloc.RelocationMode{
		regreloc.RelocateOR, regreloc.RelocateADD, regreloc.RelocateMUX, regreloc.RelocateBounded,
	} {
		m := regreloc.NewMachine(regreloc.MachineConfig{Registers: 128, Mode: mode})
		prog, err := regreloc.Assemble("movi r1, 9\nhalt")
		if err != nil {
			t.Fatal(err)
		}
		m.Load(prog, 0)
		m.RF.SetRRM(16)
		if err := m.Run(10); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if m.RF.Read(17) != 9 {
			t.Errorf("mode %v: relocated write missing", mode)
		}
	}
}

func TestPublicAPINetworkAndCache(t *testing.T) {
	res := regreloc.SimulateNetwork(regreloc.NetworkConfig{Processors: 32}, 0.01, 30_000, 1)
	if res.Requests == 0 || res.MeanLatency <= 0 {
		t.Errorf("network result = %+v", res)
	}
	lat, eff := regreloc.NetworkFixedPoint(regreloc.NetworkConfig{Processors: 64}, 32, 8, 6, 20_000, 1)
	if lat <= 0 || eff <= 0 || eff > 1 {
		t.Errorf("fixed point = %g, %g", lat, eff)
	}
	study := regreloc.DefaultCacheStudy()
	study.TotalRefs = 20_000
	m1, m4 := study.MissRate(1, 7), study.MissRate(4, 7)
	if m4 <= m1 {
		t.Errorf("interference missing: %g vs %g", m1, m4)
	}
	lim := regreloc.NewAdaptiveLimiter(1, 1, 8)
	if n := lim.Observe(0.5); n < 1 || n > 8 {
		t.Errorf("limiter stepped to %d", n)
	}
}

func TestPublicAPICoupledRun(t *testing.T) {
	spec := regreloc.SyncFaultWorkload(16, 1, regreloc.PaperContextSizes(), 16, 2000)
	res := regreloc.CoupledNodeRun(
		regreloc.NetworkConfig{Processors: 32},
		regreloc.FlexibleNode(128, regreloc.TwoPhaseUnload, 8),
		spec, 10_000, 1)
	if res.Efficiency <= 0 || res.Latency <= 0 || res.Rounds < 1 {
		t.Errorf("coupled result = %+v", res)
	}
	if res.NodeResult.Completed != 16 {
		t.Errorf("completed %d/16", res.NodeResult.Completed)
	}
}
