package network

import (
	"fmt"
	"math"

	"regreloc/internal/node"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

// CoupledResult is the converged state of a multi-node co-simulation.
type CoupledResult struct {
	// Latency is the converged mean remote-miss latency.
	Latency float64
	// Efficiency is the per-node processor utilization at convergence.
	Efficiency float64
	// FaultRate is the per-node remote requests per cycle.
	FaultRate float64
	// Rounds is the number of relaxation rounds used.
	Rounds int
	// NodeResult is the final node simulation.
	NodeResult node.Result
}

// relaxedLatency is a relaxation round's latency distribution: an
// rng.Exponential that rng.NewSampler does not recognise, so the node
// samples it through the Dist interface. That draws exactly the values
// a guide table would, without memoizing a table for a mean no other
// run uses: each would hold one of the shared memo's slots for the life
// of the process, and once the memo is full every later Sampler draws
// from the formula.
type relaxedLatency struct{ rng.Exponential }

// CoupledRun co-simulates P identical multithreaded nodes sharing the
// interconnect, at round granularity: each round runs the FULL node
// simulator (not the analytic model) with the current latency
// estimate, measures the node's actual fault rate, offers that load to
// the event-driven network, and relaxes the latency toward the
// network's measured round trip. This is the whole-system composition
// the paper's PROTEUS setup represents: processor model, runtime
// software costs, and interconnect, closed over each other.
//
// The workload's Latency distribution is replaced each round; its
// other fields are used as given.
func CoupledRun(cfg Config, nodeCfg node.Config, spec workload.Spec, horizon int64, seed uint64) CoupledResult {
	cfg = cfg.withDefaults()
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("network: %v", err))
	}
	l := cfg.UnloadedLatency()
	var out CoupledResult
	for round := 1; round <= 15; round++ {
		spec.Latency = relaxedLatency{rng.Exponential{MeanValue: l}}
		res := node.Run(nodeCfg, spec, seed+uint64(round))
		total := res.Full.Total()
		rate := 0.0
		if total > 0 {
			rate = float64(res.Faults) / float64(total)
		}
		net := Simulate(cfg, rate, horizon, seed+uint64(round))
		next := net.MeanLatency

		out = CoupledResult{
			Latency:    next,
			Efficiency: res.Efficiency,
			FaultRate:  rate,
			Rounds:     round,
			NodeResult: res,
		}
		if math.Abs(next-l) < 1 {
			return out
		}
		l = 0.5*l + 0.5*next
	}
	return out
}
