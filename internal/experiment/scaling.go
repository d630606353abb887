package experiment

import (
	"regreloc/internal/network"
	"regreloc/internal/rng"
)

func init() {
	register(Experiment{
		ID:    "scaling",
		Title: "Section 3.4: machine-size scaling with network feedback",
		Description: "Closed-loop efficiency versus processor count: remote-miss " +
			"latency comes from an event-driven interconnect simulation whose " +
			"load depends on the achieved efficiency (fixed point). As machines " +
			"grow, L grows, the saturation point N* = 1 + L/(R+S) moves past the " +
			"fixed baseline's 4 contexts, and register relocation's extra " +
			"resident contexts keep the processor saturated. The L column holds " +
			"P (the processor count).",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{
				ID:    "scaling",
				Title: "Section 3.4: machine-size scaling with network feedback",
				Notes: []string{
					"Paper: 'Given current trends toward large parallel machines and",
					"extremely fast processors, we expect R to decrease and L to",
					"increase, requiring a large number of contexts before processor",
					"efficiency saturates.' The L column holds P.",
				},
			}
			const (
				runLen     = 12
				switchCost = 8
				// Resident contexts on a 128-register file: 4 fixed
				// slots of 32; ~8.5 flexible contexts for small-context
				// workloads (C ~ U[6,16] packs at ~15 registers each).
				fixedN = 4
				flexN  = 8.5
			)
			horizon := int64(25_000)
			if scale.Threads <= Quick.Threads {
				horizon = 12_000
			}
			procs := []int{16, 32, 64, 128, 256, 512}
			archs := []struct {
				name string
				n    float64
			}{{"fixed", fixedN}, {"flexible", flexN}}
			r.Points, r.Err = gather(scale, len(procs)*len(archs), func(i int) []Measurement {
				p, ai := procs[i/len(archs)], i%len(archs)
				arch := archs[ai]
				cfg := network.Config{Processors: p, HopLatency: 8, ServiceTime: 12}
				res := network.FixedPoint(cfg, runLen, switchCost, arch.n, horizon,
					rng.DeriveSeed(seed, 128, runLen, uint64(p), uint64(ai)))
				return []Measurement{
					{Panel: "P-sweep", Arch: arch.name, R: runLen, L: p, F: 128, Eff: res.Efficiency},
					{Panel: "latency", Arch: arch.name, R: runLen, L: p, F: 128, Eff: res.Latency},
				}
			})
			return r
		},
	})
}
