package network

import (
	"fmt"
	"testing"

	"regreloc/internal/node"
	"regreloc/internal/policy"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

func flexibleNode(f int) node.Config { return node.FlexibleConfig(f, policy.TwoPhase{}, 8) }
func fixedNode(f int) node.Config    { return node.FixedConfig(f, policy.TwoPhase{}, 8) }

func coupledSpec(threads int) workload.Spec {
	return workload.Spec{
		Name:    "coupled",
		RunLen:  rng.Geometric{MeanValue: 16},
		Latency: rng.Constant{Value: 1}, // replaced per round
		CtxSize: workload.PaperCtxSize(),
		Work:    rng.Constant{Value: 4000},
		Threads: threads,
	}
}

func TestCoupledRunConverges(t *testing.T) {
	cfg := Config{Processors: 64, HopLatency: 4, ServiceTime: 12}
	res := CoupledRun(cfg, flexibleNode(128), coupledSpec(32), 20_000, 3)
	if res.Rounds >= 15 {
		t.Errorf("did not converge: %+v rounds", res.Rounds)
	}
	if res.Latency < cfg.withDefaults().UnloadedLatency()-1 {
		t.Errorf("latency %.1f below unloaded", res.Latency)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("efficiency = %g", res.Efficiency)
	}
	if res.NodeResult.Completed != 32 {
		t.Errorf("node completed %d/32 threads", res.NodeResult.Completed)
	}
	if res.FaultRate <= 0 {
		t.Error("no faults measured")
	}
	// The seeded run's answer: drawing the rounds' latencies any other
	// way than Exponential.Sample does moves it.
	if got := fmt.Sprintf("%.9g %.9g %d", res.Latency, res.Efficiency, res.Rounds); got != "41.2216068 0.65598975 4" {
		t.Errorf("latency, efficiency, rounds = %s; want 41.2216068 0.65598975 4", got)
	}
}

func TestCoupledFlexibleBeatsFixedAtScale(t *testing.T) {
	// The full-system composition of the paper's claim: on a large
	// machine (long, contended latencies), register relocation's extra
	// resident contexts yield higher converged efficiency than fixed
	// hardware contexts — with all Figure 4 software costs included.
	cfg := Config{Processors: 256, HopLatency: 8, ServiceTime: 12}
	flex := CoupledRun(cfg, flexibleNode(128), coupledSpec(32), 20_000, 3)
	fixed := CoupledRun(cfg, fixedNode(128), coupledSpec(32), 20_000, 3)
	if flex.Efficiency <= fixed.Efficiency {
		t.Errorf("flexible %.3f <= fixed %.3f (latencies %.0f/%.0f)",
			flex.Efficiency, fixed.Efficiency, flex.Latency, fixed.Latency)
	}
}

func TestCoupledFeedbackRaisesLatency(t *testing.T) {
	// A node driving real load must converge to a latency above the
	// unloaded round trip.
	cfg := Config{Processors: 64, HopLatency: 4, ServiceTime: 20}
	res := CoupledRun(cfg, flexibleNode(256), coupledSpec(48), 20_000, 7)
	if res.Latency <= cfg.withDefaults().UnloadedLatency() {
		t.Errorf("no contention feedback: converged %.1f, unloaded %.1f",
			res.Latency, cfg.withDefaults().UnloadedLatency())
	}
}

func TestCoupledInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec accepted")
		}
	}()
	CoupledRun(Config{Processors: 4}, flexibleNode(128), workload.Spec{}, 1000, 1)
}
