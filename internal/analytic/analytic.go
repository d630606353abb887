// Package analytic implements the simple mathematical model of
// multithreaded processor efficiency the paper uses in Section 3.4
// (after Saavedra-Barrera, Culler & von Eicken): for run length R,
// fault latency L, and context switch cost S,
//
//	E_sat = R / (R + S)                       (saturated)
//	E_lin = N*R / (R + L + S)                 (linear regime)
//
// with the crossover at N* = 1 + L/(R+S) resident contexts. Processor
// efficiency grows linearly in the number of resident contexts until
// saturation, then is flat — which is why register relocation's extra
// resident contexts translate directly into utilization whenever the
// baseline operates below N*.
package analytic

import "math"

// Params are the deterministic model inputs.
type Params struct {
	R float64 // average run length (cycles)
	L float64 // average fault latency (cycles)
	S float64 // context switch cost (cycles)
}

// NewParams validates and returns model parameters.
func NewParams(r, l, s float64) Params {
	if r <= 0 || l < 0 || s < 0 {
		panic("analytic: parameters must be positive")
	}
	return Params{R: r, L: l, S: s}
}

// Saturated returns E_sat = R/(R+S), the efficiency with enough
// resident contexts that the processor never idles. Independent of L.
func (p Params) Saturated() float64 { return p.R / (p.R + p.S) }

// Linear returns E_lin = N*R/(R+L+S), the efficiency with N resident
// contexts below the saturation point.
func (p Params) Linear(n float64) float64 { return n * p.R / (p.R + p.L + p.S) }

// SaturationPoint returns N* = 1 + L/(R+S), the number of resident
// contexts at which the two regimes meet.
func (p Params) SaturationPoint() float64 { return 1 + p.L/(p.R+p.S) }

// Efficiency returns the model's efficiency for N resident contexts:
// min(E_lin, E_sat).
func (p Params) Efficiency(n float64) float64 {
	return math.Min(p.Linear(n), p.Saturated())
}

// ResidentContexts estimates the number of resident contexts an
// architecture sustains: how many contexts of the given average
// rounded size fit in a register file of fileSize registers.
func ResidentContexts(fileSize int, avgCtxRegs float64) float64 {
	if avgCtxRegs <= 0 {
		panic("analytic: context size must be positive")
	}
	return float64(fileSize) / avgCtxRegs
}
