package experiment

import (
	"fmt"
	"sort"
)

// AnalyticCalibratedMaxAbs is the calibrated upper bound on the
// analytic tier's per-cell absolute efficiency error against the
// discrete-event simulator, measured by the fidelity-error experiment
// over the Figure 5 grid at Full scale (the grid the golden reports
// pin). Serving uses it as the a-priori error bound on an adaptive
// job's analytic answer before refinement returns the exact deltas.
// Re-measure (rrsim -experiment fidelity-error) and update when the
// model or the simulator changes.
const AnalyticCalibratedMaxAbs = 0.25

func init() {
	// The figure5 sweep itself — and so, deliberately, its experiment
	// ID in the point keys: the sim cells here are the cells a figure5
	// sweep computes, so calibration rides (and warms) the same cache
	// entries at each tier.
	register(Experiment{
		ID:    "fidelity-error",
		Title: "Analytic-tier error vs the simulator (calibration)",
		Description: "The Figure 5 grid measured twice — once on the discrete-event " +
			"simulator, once with the Section 3.4 closed-form model — reporting " +
			"each cell's absolute efficiency delta. The summary maximum calibrates " +
			"the error bound adaptive serving attaches to analytic answers.",
		RunGrid: func(seed uint64, scale Scale, g Grids) *Report {
			r := &Report{
				ID:    "fidelity-error",
				Title: "Analytic-tier error vs the simulator (calibration)",
				Notes: []string{
					"Eff is |analytic - simulated| per cell (lower is better).",
				},
			}
			simScale := scale
			simScale.Fidelity = FidelitySim
			sim := figure5Sweep.plan(seed, simScale, g).Run(simScale)
			if sim.Err != nil {
				r.Err = sim.Err
				return r
			}
			anaScale := scale
			anaScale.Fidelity = FidelityAnalytic
			ana := figure5Sweep.plan(seed, anaScale, g).Run(anaScale)
			if ana.Err != nil {
				r.Err = ana.Err
				return r
			}
			simPts, anaPts := sim.Points, ana.Points
			// Both sweeps enumerate the grid in the same cell order.
			var maxAbs, sumAbs float64
			for i := range simPts {
				d := simPts[i].Eff - anaPts[i].Eff
				if d < 0 {
					d = -d
				}
				if d > maxAbs {
					maxAbs = d
				}
				sumAbs += d
				m := simPts[i]
				m.Eff = d
				m.Res.Name = "delta"
				m.Res.Efficiency = simPts[i].Eff
				m.Res.AvgResident = anaPts[i].Res.AvgResident
				r.Points = append(r.Points, m)
			}
			if n := len(r.Points); n > 0 {
				abs := make([]float64, n)
				for i, p := range r.Points {
					abs[i] = p.Eff
				}
				sort.Float64s(abs)
				r.Notes = append(r.Notes,
					fmt.Sprintf("max |delta| = %.4f, mean = %.4f, p95 = %.4f over %d cells (calibrated bound %.2f)",
						maxAbs, sumAbs/float64(n), abs[n*95/100], n, AnalyticCalibratedMaxAbs))
			}
			return r
		},
	})
}
