package rng_test

import (
	"testing"

	"regreloc/internal/network"
	"regreloc/internal/node"
	"regreloc/internal/policy"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

// TestCoupledRunSkipsMemo: network.CoupledRun draws each relaxation
// round's latencies at a new continuous mean, and those means must not
// take slots in the shared guide memo, which the sweeps' samplers rely
// on. Its fixed run-length mean is memoized as any sweep's is.
func TestCoupledRunSkipsMemo(t *testing.T) {
	spec := workload.Spec{
		Name:    "coupled",
		RunLen:  rng.Geometric{MeanValue: 16},
		Latency: rng.Constant{Value: 1}, // replaced per round
		CtxSize: workload.PaperCtxSize(),
		Work:    rng.Constant{Value: 2000},
		Threads: 16,
	}
	rng.NewSampler(spec.RunLen)
	before := rng.MemoTables()
	for _, p := range []int{16, 64, 256} {
		cfg := network.Config{Processors: p, HopLatency: 4, ServiceTime: 12}
		res := network.CoupledRun(cfg, node.FlexibleConfig(128, policy.TwoPhase{}, 8), spec, 5_000, 3)
		if res.Rounds < 2 {
			t.Fatalf("P=%d converged in %d round; want a run that relaxes", p, res.Rounds)
		}
	}
	if after := rng.MemoTables(); after != before {
		t.Errorf("shared memo held %d tables before three CoupledRuns and %d after", before, after)
	}
}
