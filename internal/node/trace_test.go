package node

import (
	"fmt"
	"reflect"
	"testing"

	"regreloc/internal/policy"
	"regreloc/internal/trace"
	"regreloc/internal/workload"
)

// TestTracingDoesNotPerturb pins the Config.Tracer contract: a traced
// run returns the same Result as an untraced one. A traced run polls
// pass by pass while an untraced one charges streaks of quiet probe
// passes in bulk (quietPasses), so this is also the differential test
// of the bulk charge against pass-by-pass polling, over every
// unloading policy, with and without dribbled unloads, both
// architectures, two register-file sizes, and cache, synchronization,
// churn-regime and combined workloads.
func TestTracingDoesNotPerturb(t *testing.T) {
	ctx := workload.PaperCtxSize()
	specs := []workload.Spec{
		workload.CacheFaults(32, 256, ctx, 24, 3000),
		workload.SyncFaults(32, 512, ctx, 24, 3000),
		workload.SyncFaults(32, 2048, ctx, 32, 2000), // BenchmarkRunChurnRegime's shape
		workload.Combined(32, 64, 128, 512, ctx, 24, 3000),
	}
	policies := []policy.Unload{policy.Never{}, policy.TwoPhase{}, policy.Always{}}
	archs := []func(int, policy.Unload, int64) Config{FixedConfig, FlexibleConfig}
	for _, spec := range specs {
		for _, pol := range policies {
			for _, dribble := range []bool{false, true} {
				for _, arch := range archs {
					for _, f := range []int{64, 128} {
						cfg := arch(f, pol, 8)
						cfg.DribbleUnload = dribble
						for seed := uint64(1); seed <= 3; seed++ {
							name := fmt.Sprintf("%s/%s/%s/dribble=%v/F=%d/seed=%d",
								spec.Name, pol.Name(), cfg.Name, dribble, f, seed)
							plain := Run(cfg, spec, seed)
							traced := cfg
							traced.Tracer = trace.New(1 << 10)
							if got := Run(traced, spec, seed); !reflect.DeepEqual(got, plain) {
								t.Errorf("%s: traced run differs\n traced:   %+v\n untraced: %+v", name, got, plain)
							}
						}
					}
				}
			}
		}
	}
}
