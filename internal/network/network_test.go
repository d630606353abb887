package network

import (
	"math"
	"testing"

	"regreloc/internal/testutil"
)

func TestUnloadedLatency(t *testing.T) {
	cfg := Config{Processors: 64, HopLatency: 2, ServiceTime: 12}
	// Hypercube of 64: lg=6, avg hops 3; round trip 2*3*2 + 12 = 24.
	if got := cfg.UnloadedLatency(); got != 24 {
		t.Errorf("unloaded latency = %g want 24", got)
	}
	// Tiny machines floor at one hop.
	small := Config{Processors: 2, HopLatency: 2, ServiceTime: 12}
	if got := small.UnloadedLatency(); got != 16 {
		t.Errorf("2-node latency = %g want 16", got)
	}
}

func TestLatencyGrowsWithMachineSize(t *testing.T) {
	// The paper's motivating trend: larger machines mean longer L,
	// even at a fixed per-processor request rate.
	prev := 0.0
	for _, p := range []int{16, 64, 256, 1024} {
		cfg := Config{Processors: p}
		res := Simulate(cfg, 0.002, 60_000, 7)
		if res.MeanLatency <= prev {
			t.Errorf("P=%d: latency %.1f did not grow (prev %.1f)", p, res.MeanLatency, prev)
		}
		prev = res.MeanLatency
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	cfg := Config{Processors: 64}
	light := Simulate(cfg, 0.001, 150_000, 3)
	heavy := Simulate(cfg, 0.05, 150_000, 3)
	if heavy.MeanLatency <= light.MeanLatency {
		t.Errorf("contention missing: light %.1f, heavy %.1f", light.MeanLatency, heavy.MeanLatency)
	}
	if heavy.Utilization <= light.Utilization {
		t.Errorf("module utilization: light %.3f, heavy %.3f", light.Utilization, heavy.Utilization)
	}
	// Light load approaches the unloaded latency (the paper's
	// "reasonable for lightly loaded networks" justification for
	// constant L).
	if math.Abs(light.MeanLatency-cfg.withDefaults().UnloadedLatency()) > 3 {
		t.Errorf("light-load latency %.1f far from unloaded %.1f",
			light.MeanLatency, cfg.withDefaults().UnloadedLatency())
	}
}

func TestZeroRate(t *testing.T) {
	cfg := Config{Processors: 8}
	res := Simulate(cfg, 0, 1000, 1)
	if res.Requests != 0 {
		t.Errorf("requests = %d at zero rate", res.Requests)
	}
	if res.MeanLatency != cfg.withDefaults().UnloadedLatency() {
		t.Error("idle network should report the unloaded latency")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Processors: 32}
	a := Simulate(cfg, 0.01, 50_000, 9)
	b := Simulate(cfg, 0.01, 50_000, 9)
	if a.MeanLatency != b.MeanLatency || a.Requests != b.Requests {
		t.Error("simulation not reproducible")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []func(){
		func() { Simulate(Config{Processors: 0}, 0.1, 100, 1) },
		func() { Simulate(Config{Processors: 4, ServiceTime: -1}, 0.1, 100, 1) },
		func() { Simulate(Config{Processors: 4}, -0.1, 100, 1) },
		func() { Simulate(Config{Processors: 4}, 0.1, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFixedPointConverges(t *testing.T) {
	cfg := Config{Processors: 64}
	res := FixedPoint(cfg, 32, 8, 6, 40_000, 5)
	if res.Iterations >= 20 {
		t.Errorf("fixed point did not converge: %+v", res)
	}
	if res.Latency < cfg.withDefaults().UnloadedLatency()-1 {
		t.Errorf("converged latency %.1f below unloaded", res.Latency)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("efficiency = %g", res.Efficiency)
	}
}

// scalingConfig puts the closed loop in the paper's regime of
// interest: a slower interconnect (8-cycle hops) and short run lengths
// (R=12), so remote latency exceeds N*(R+S) for a 4-context machine.
func scalingConfig(p int) Config {
	return Config{Processors: p, HopLatency: 8, ServiceTime: 12}
}

func TestMoreContextsSustainLargerMachines(t *testing.T) {
	// The register relocation payoff at scale: with the same register
	// file, the flexible architecture's extra resident contexts keep
	// efficiency up as the machine (and so L) grows, while the fixed
	// 4-context baseline drops into the linear regime.
	for _, p := range []int{64, 256} {
		cfg := scalingConfig(p)
		fixed := FixedPoint(cfg, 12, 8, 4, 25_000, 5)  // F=128 / 32 = 4 contexts
		flex := FixedPoint(cfg, 12, 8, 8.5, 25_000, 5) // F=128, small-context packing
		if flex.Efficiency <= fixed.Efficiency+0.01 {
			t.Errorf("P=%d: flexible %.3f <= fixed %.3f (L=%.0f/%.0f)",
				p, flex.Efficiency, fixed.Efficiency, flex.Latency, fixed.Latency)
		}
	}
}

func TestEfficiencyFallsWithMachineSize(t *testing.T) {
	prev := 1.1
	for _, p := range []int{16, 64, 256} {
		res := FixedPoint(scalingConfig(p), 12, 8, 4, 25_000, 5)
		if res.Efficiency > prev+0.01 {
			t.Errorf("P=%d: efficiency %.3f rose above %.3f", p, res.Efficiency, prev)
		}
		prev = res.Efficiency
	}
}

// TestSimulateSteadyStateAllocs guards the recycled working set: once
// the state pool holds a calendar grown to the dense P=512 regime, a
// Simulate call reuses it and allocates nothing, however many events it
// processes.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	cfg := Config{Processors: 512, HopLatency: 8, ServiceTime: 12}
	Simulate(cfg, 0.05, 2_000, 1) // warm the state pool
	allocs := testing.AllocsPerRun(20, func() {
		Simulate(cfg, 0.05, 2_000, 1)
	})
	if allocs != 0 {
		t.Errorf("Simulate allocated %.0f times in steady state; want 0 (calendar storage not reused?)", allocs)
	}
}
