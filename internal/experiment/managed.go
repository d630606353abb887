package experiment

import (
	"fmt"

	"regreloc/internal/isa"
	"regreloc/internal/kernel"
)

// runManagedPoint executes an oversubscribed managed run (every
// runtime operation in assembly) at the given fault latency and
// returns the measured processor utilization: cycles spent executing
// the workers' loop bodies divided by total cycles.
func runManagedPoint(latency, threads, iters int) (float64, error) {
	mgr, err := kernel.NewManager(kernel.WorkerSourceLatency(latency))
	if err != nil {
		return 0, err
	}
	defer mgr.Release()
	mgr.EnableLongFaults()
	for i := 0; i < threads; i++ {
		mgr.Spawn(fmt.Sprintf("w%d", i), "worker", iters)
	}
	// Count instructions executed inside the work loop (worker ..
	// worker_spin): the thread's useful computation, as opposed to
	// runtime code, spinning, and padding.
	workStart := mgr.Symbol("worker")
	workEnd := mgr.Symbol("worker_spin")
	var useful int64
	mgr.M.Trace = func(pc int, in isa.Instr) {
		if pc >= workStart && pc < workEnd && in.Op != isa.FAULT {
			useful++
		}
	}
	cycles, err := mgr.Run(10_000_000)
	if err != nil {
		return 0, err
	}
	return float64(useful) / float64(cycles), nil
}

func init() {
	register(Experiment{
		ID:    "managed-isa",
		Title: "ISA-level efficiency vs latency (managed machine)",
		Description: "The oversubscribed managed machine — Appendix A allocation, " +
			"Section 2.5 load/unload, Figure 3 switches, and two-phase eviction " +
			"all executing as instructions — swept across fault latencies. The " +
			"utilization curve must fall with latency, the same shape the " +
			"event-level simulator produces for Figure 6.",
		Run: func(seed uint64, scale Scale) *Report {
			r := &Report{
				ID:    "managed-isa",
				Title: "ISA-level efficiency vs latency (managed machine)",
				Notes: []string{
					"Every data point is a full machine execution; utilization is",
					"worker-loop instructions over total cycles. 10 threads, ~7",
					"resident contexts.",
				},
			}
			iters := 60
			if scale.Threads > Quick.Threads {
				iters = 150
			}
			// Each latency point is a full machine execution, deterministic
			// given (latency, iters) — no RNG — so the points parallelize
			// without seed derivation.
			lats := []int{25, 50, 100, 200, 400, 800}
			effs := make([]float64, len(lats))
			errs := make([]error, len(lats))
			r.Err = scale.forEach(len(lats), func(i int) {
				effs[i], errs[i] = runManagedPoint(lats[i], 10, iters)
			})
			for i, lat := range lats {
				if errs[i] != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("L=%d failed: %v", lat, errs[i]))
					continue
				}
				r.Points = append(r.Points, Measurement{
					Panel: "ISA", Arch: "flexible-managed", R: 3, L: lat, F: 128, Eff: effs[i],
				})
			}
			return r
		},
	})
}
