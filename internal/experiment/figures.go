package experiment

import (
	"fmt"

	"regreloc/internal/alloc"
	"regreloc/internal/analytic"
	"regreloc/internal/node"
	"regreloc/internal/policy"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

// Parameter grids for the reproduced figures. The paper plots
// efficiency vs latency for three register file sizes and three run
// lengths per figure; the L grids below span the regimes its text
// describes (saturation through the Figure 6(a) churn crossover).
var (
	fileSizes = []int{64, 128, 256}
	cacheRs   = []int{8, 32, 128} // Figure 5 data points
	cacheLs   = []int{16, 32, 64, 128, 256, 512}
	syncRs    = []int{32, 128, 512} // Figure 6 data points
	syncLs    = []int{64, 128, 256, 512, 1024}
)

func fixedArch(switchCost int64, pol policy.Unload) archSpec {
	return archSpec{"fixed", func(f int) node.Config { return node.FixedConfig(f, pol, switchCost) }}
}

func flexArch(switchCost int64, pol policy.Unload) archSpec {
	return archSpec{"flexible", func(f int) node.Config { return node.FlexibleConfig(f, pol, switchCost) }}
}

func lookupArch(switchCost int64, pol policy.Unload) archSpec {
	return archSpec{"flexible-lookup", func(f int) node.Config {
		return node.Config{
			Name:        "flexible-lookup",
			NewAlloc:    func() alloc.Allocator { return alloc.NewLookup(f, alloc.LookupCosts) },
			Policy:      pol,
			SwitchCost:  switchCost,
			QueueOpCost: 10,
		}
	}}
}

// Shared workload builders: each grid experiment's spec function is
// defined once and used by RunGrid (whole grids) and ComputeCells
// (shard-scoped cell lists) alike, so a cell computes identically no
// matter which path — or which process — runs it.
func cacheFaultSpec(scale Scale, rl, l int, work int64) workload.Spec {
	return workload.CacheFaults(rl, l, workload.PaperCtxSize(), scale.Threads, work)
}

func syncFaultSpec(scale Scale, rl, l int, work int64) workload.Spec {
	return workload.SyncFaults(rl, l, workload.PaperCtxSize(), scale.Threads, work)
}

func bimodalSpec(scale Scale, rl, l int, work int64) workload.Spec {
	bimodal := rng.NewWeighted([]int{6, 24}, []float64{4, 1})
	return workload.CacheFaults(rl, l, bimodal, scale.Threads, work)
}

func combinedSpec(scale Scale, rl, l int, work int64) workload.Spec {
	return workload.Combined(32, 64, rl, l, workload.PaperCtxSize(), scale.Threads, work)
}

var (
	figure5Archs = []archSpec{fixedArch(6, policy.Never{}), flexArch(6, policy.Never{})}
	figure6Archs = []archSpec{fixedArch(8, policy.TwoPhase{}), flexArch(8, policy.TwoPhase{})}

	// figure5Sweep is also the fidelity-error experiment's grid.
	figure5Sweep = &gridSweep{
		id:    "figure5",
		title: "Figure 5: Tolerating Cache Faults",
		description: "Efficiency vs constant memory latency L for F = 64/128/256 " +
			"registers, geometric run lengths R = 8/32/128, C ~ U[6,24], S = 6, " +
			"contexts never unloaded.",
		notes: []string{
			"Paper: register relocation consistently outperforms fixed-size",
			"contexts, with higher efficiency over a wide range of L and R.",
		},
		f: fileSizes, r: cacheRs, l: cacheLs,
		archs: figure5Archs,
		spec:  cacheFaultSpec,
	}
)

// homogeneousSweep declares the Section 3.4 cache-fault grid with every
// thread needing exactly c registers.
func homogeneousSweep(c int) *gridSweep {
	return &gridSweep{
		id:    fmt.Sprintf("homogeneous-c%d", c),
		title: fmt.Sprintf("Section 3.4: homogeneous context size C=%d", c),
		description: fmt.Sprintf("Cache-fault experiments with every thread "+
			"requiring exactly %d registers; smaller homogeneous contexts give "+
			"register relocation substantially larger relative gains.", c),
		notes: []string{
			"Paper: results were similar to Figures 5 and 6, but the relative",
			"improvements due to register relocation were often substantially",
			"larger.",
		},
		f: fileSizes, r: cacheRs, l: cacheLs,
		archs: figure5Archs,
		spec: func(scale Scale, rl, l int, work int64) workload.Spec {
			return workload.CacheFaults(rl, l, rng.Constant{Value: c}, scale.Threads, work)
		},
	}
}

func init() {
	register(figure5Sweep.experiment())

	register((&gridSweep{
		id:    "figure6",
		title: "Figure 6: Tolerating Synchronization Faults",
		description: "Efficiency vs exponential synchronization latency L for " +
			"F = 64/128/256, R = 32/128/512, C ~ U[6,24], S = 8, competitive " +
			"two-phase unloading.",
		notes: []string{
			"Paper: register relocation improves utilization for virtually all",
			"parameters; the only notable exception is F=64 (panel a) at large",
			"L, where allocation overhead under load/unload churn lets fixed",
			"contexts win marginally.",
		},
		f: fileSizes, r: syncRs, l: syncLs,
		archs: figure6Archs,
		spec:  syncFaultSpec,
	}).experiment())

	register((&gridSweep{
		id:    "figure6a-cheap",
		title: "Section 3.3: Figure 6(a) rerun with cheap allocation",
		description: "F = 64 synchronization experiments with the specialized " +
			"lookup-table allocator (two context sizes, direct table lookup), " +
			"verifying that lower allocation costs restore register relocation's " +
			"advantage in the churn regime.",
		notes: []string{
			"Paper: re-executing the Figure 6(a) experiments with lower",
			"allocation costs made register relocation consistently outperform",
			"fixed-size contexts.",
		},
		f: []int{64}, r: syncRs, l: syncLs,
		archs: []archSpec{
			fixedArch(8, policy.TwoPhase{}),
			flexArch(8, policy.TwoPhase{}),
			lookupArch(8, policy.TwoPhase{}),
		},
		spec: syncFaultSpec,
	}).experiment())

	register(homogeneousSweep(8).experiment())
	register(homogeneousSweep(16).experiment())

	register((&gridSweep{
		id:    "mixed-granularity",
		title: "Section 2: mixed coarse- and fine-grained threads",
		description: "Cache-fault experiments with a bimodal context-size " +
			"population (80% fine-grained threads needing 6 registers, 20% " +
			"coarse needing 24) — the paper's motivating case for dividing the " +
			"register file 'into different combinations of context sizes, " +
			"supporting a mix of both coarse and fine-grained threads'.",
		notes: []string{
			"Fine threads fit 8-register contexts under register relocation",
			"but burn a whole 32-register hardware context on the baseline.",
		},
		f: fileSizes, r: cacheRs, l: cacheLs,
		archs: figure5Archs,
		spec:  bimodalSpec,
	}).experiment())

	register((&gridSweep{
		id:    "combined",
		title: "Section 3: combined cache and synchronization faults",
		description: "Workloads with both fault types superposed (cache faults at " +
			"R=32, L=64 plus synchronization faults at the swept R and L); the " +
			"paper reports similar results with a higher overall fault rate.",
		notes: []string{
			"Paper: experiments involving both fault types gave similar",
			"results; the main effect was to increase the overall fault rate.",
		},
		f: fileSizes, r: syncRs, l: syncLs,
		archs: figure6Archs,
		spec:  combinedSpec,
	}).experiment())

	register((&gridSweep{
		id:    "ablation-policy",
		title: "Ablation: unloading policy",
		description: "Register relocation at F=128 under never/two-phase/always " +
			"unloading across synchronization latencies.",
		f: []int{128}, r: []int{32}, l: syncLs,
		archs: []archSpec{
			{"flex-never", func(f int) node.Config { return node.FlexibleConfig(f, policy.Never{}, 8) }},
			{"flex-two-phase", func(f int) node.Config { return node.FlexibleConfig(f, policy.TwoPhase{}, 8) }},
			{"flex-always", func(f int) node.Config { return node.FlexibleConfig(f, policy.Always{}, 8) }},
		},
		spec: syncFaultSpec,
	}).fixed())

	register((&gridSweep{
		id:    "ablation-alloc",
		title: "Ablation: context allocator",
		description: "The Figure 6(a) churn regime (F=64, R=32) across allocators: " +
			"general-purpose bitmap (25-cycle), FF1-assisted (15-cycle), buddy, " +
			"lookup-table (4-cycle), and the zero-cost fixed baseline.",
		f: []int{64}, r: []int{32}, l: syncLs,
		archs: []archSpec{
			fixedArch(8, policy.TwoPhase{}),
			flexArch(8, policy.TwoPhase{}),
			{"flexible-ff1", func(f int) node.Config {
				return node.Config{
					Name:        "flexible-ff1",
					NewAlloc:    func() alloc.Allocator { return alloc.NewBitmap(f, 64, alloc.FF1Costs) },
					Policy:      policy.TwoPhase{},
					SwitchCost:  8,
					QueueOpCost: 10,
				}
			}},
			{"flexible-buddy", func(f int) node.Config {
				return node.Config{
					Name:        "flexible-buddy",
					NewAlloc:    func() alloc.Allocator { return alloc.NewBuddy(f, 4, 64, alloc.FlexibleCosts) },
					Policy:      policy.TwoPhase{},
					SwitchCost:  8,
					QueueOpCost: 10,
				}
			}},
			lookupArch(8, policy.TwoPhase{}),
		},
		spec: syncFaultSpec,
	}).fixed())

	register(Experiment{
		ID:    "analytic",
		Title: "Section 3.4: simulation vs analytic model",
		Description: "Deterministic run lengths and latencies across resident-" +
			"context counts N, compared to E_lin = N*R/(R+L+S) capped at " +
			"E_sat = R/(R+S). The L column holds N; R=64, L=640, S=6.",
		Run: func(seed uint64, scale Scale) *Report {
			const (
				runLen  = 64
				latency = 640
				s       = 6
			)
			r := &Report{
				ID:    "analytic",
				Title: "Section 3.4: simulation vs analytic model",
				Notes: []string{
					"Efficiency grows linearly in resident contexts until saturation",
					"(N* = 1 + L/(R+S)), then is flat. The L column holds N.",
				},
			}
			params := analytic.NewParams(runLen, latency, s)
			r.Points, r.Err = gather(scale, 14, func(i int) []Measurement {
				n := i + 1
				spec := workload.Spec{
					Name:    fmt.Sprintf("N=%d", n),
					RunLen:  rng.Constant{Value: runLen},
					Latency: rng.Constant{Value: latency},
					CtxSize: rng.Constant{Value: 8},
					Work:    rng.Constant{Value: int(scale.workPer(runLen))},
					Threads: n, // population == resident capacity usage
				}
				res := node.Run(node.FlexibleConfig(128, policy.Never{}, s), spec,
					rng.DeriveSeed(seed, 128, uint64(runLen), uint64(n), 0))
				return []Measurement{
					{Panel: "N-sweep", Arch: "simulated", R: runLen, L: n, F: 128, Eff: res.Efficiency, Res: res},
					{Panel: "N-sweep", Arch: "analytic", R: runLen, L: n, F: 128, Eff: params.Efficiency(float64(n))},
				}
			})
			return r
		},
	})
}
