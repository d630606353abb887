package experiment

import (
	"fmt"

	"regreloc/internal/cache"
	"regreloc/internal/rng"
)

func init() {
	register(Experiment{
		ID:    "cache-interference",
		Title: "Section 5.2: cache interference vs resident contexts",
		Description: "Shared-cache miss rate and resulting processor utilization " +
			"as the number of resident contexts grows, with fixed per-thread " +
			"working sets (destructive interference) and with working sets that " +
			"shrink with parallelism (Agarwal's observation); plus the adaptive " +
			"resident-context limiter from the paper's future work. The L column " +
			"holds N; Eff holds utilization for the util curves and miss rate " +
			"for the miss-rate curves.",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{
				ID:    "cache-interference",
				Title: "Section 5.2: cache interference vs resident contexts",
				Notes: []string{
					"Utilization first rises with resident contexts (latency",
					"tolerance), then falls as working sets thrash the shared cache;",
					"the adaptive controller finds the knee. The L column holds N.",
				},
			}
			const (
				latency    = 500
				switchCost = 6
				maxN       = 10
			)
			study := cache.DefaultStudy()
			// Keep test runs quick at reduced scale.
			if scale.Threads <= Quick.Threads {
				study.TotalRefs = 60_000
			}
			shrink := study
			shrink.ShrinkWithParallelism = true

			r.Points, r.Err = gather(scale, maxN, func(i int) []Measurement {
				n := i + 1
				pointSeed := rng.DeriveSeed(seed, uint64(n))
				// One derived sub-seed per (variant, panel) cell so the
				// four curves sample independent streams.
				return []Measurement{
					{Panel: "miss-rate", Arch: "fixed-ws", R: 0, L: n,
						Eff: study.MissRate(n, rng.DeriveSeed(pointSeed, 0))},
					{Panel: "miss-rate", Arch: "shrinking-ws", R: 0, L: n,
						Eff: shrink.MissRate(n, rng.DeriveSeed(pointSeed, 1))},
					{Panel: "utilization", Arch: "fixed-ws", R: 0, L: n,
						Eff: study.Utilization(n, latency, switchCost, rng.DeriveSeed(pointSeed, 2))},
					{Panel: "utilization", Arch: "shrinking-ws", R: 0, L: n,
						Eff: shrink.Utilization(n, latency, switchCost, rng.DeriveSeed(pointSeed, 3))},
				}
			})

			// The adaptive controller is a sequential feedback loop (each
			// observation decides the next setting), so it runs after the
			// sweep on its own derived stream.
			a := cache.NewAdaptive(1, 1, maxN)
			n, util := a.Converge(study, latency, switchCost, 3*maxN, rng.DeriveSeed(seed, uint64(maxN)+1))
			r.Notes = append(r.Notes,
				fmt.Sprintf("adaptive controller settled at N=%d with utilization %.3f", n, util))
			r.Points = append(r.Points,
				Measurement{Panel: "adaptive", Arch: "adaptive", R: 0, L: n, Eff: util})
			return r
		},
	})
}
