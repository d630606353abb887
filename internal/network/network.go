// Package network models the multiprocessor interconnect that produces
// the fault latencies L of the paper's experiments. The paper assumes
// constant L for cache faults, "reasonable for lightly loaded
// networks"; this package supplies the substrate behind that
// assumption and behind the Section 3.4 discussion that growing
// machines push L up and R down, forcing processors into the linear
// regime where register relocation pays.
//
// The model is an event-driven simulation of P processors issuing
// remote memory requests into a k-ary n-cube style network toward M
// memory modules: each request pays a hop-proportional transit both
// ways plus queueing and deterministic service at its module. A
// closed-loop fixed point couples the network to the multithreading
// efficiency model: more resident contexts raise utilization, which
// raises the request rate, which loads the network and raises L.
package network

import (
	"fmt"
	"math"
	"sync"

	"regreloc/internal/analytic"
	"regreloc/internal/rng"
	"regreloc/internal/sim"
)

// Config describes the machine's interconnect.
type Config struct {
	// Processors is P, the node count.
	Processors int
	// Modules is the number of memory modules (defaults to Processors).
	Modules int
	// HopLatency is the per-hop transit cost in cycles.
	HopLatency int
	// ServiceTime is the memory module's deterministic service time.
	ServiceTime int
}

func (c Config) withDefaults() Config {
	if c.Modules == 0 {
		c.Modules = c.Processors
	}
	if c.HopLatency == 0 {
		c.HopLatency = 2
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 12
	}
	return c
}

func (c Config) validate() {
	if c.Processors < 1 || c.Modules < 0 || c.HopLatency < 0 || c.ServiceTime < 1 {
		panic(fmt.Sprintf("network: invalid config %+v", c))
	}
}

// AvgHops returns the average one-way hop count for a 2-ary n-cube
// (hypercube) of P nodes: half the dimensions differ on average, so
// hops = lg(P)/2, with a floor of 1 for P > 1.
func (c Config) AvgHops() float64 {
	if c.Processors <= 1 {
		return 1
	}
	h := math.Log2(float64(c.Processors)) / 2
	if h < 1 {
		return 1
	}
	return h
}

// UnloadedLatency is the zero-contention round trip: two transits plus
// one service.
func (c Config) UnloadedLatency() float64 {
	c = c.withDefaults()
	return 2*c.AvgHops()*float64(c.HopLatency) + float64(c.ServiceTime)
}

// request is an in-flight remote access.
type request struct {
	issued sim.Cycles
	module int
}

// netEvent is one pending interconnect event. One value-typed struct
// for both event kinds keeps the calendar's entries unboxed (no
// per-event allocation).
type netEvent struct {
	isIssue bool
	proc    int     // issue events
	req     request // arrival events
}

// netState is one simulation's working set: the event calendar and
// the per-module arrays. It is recycled across Simulate calls through
// statePool, so the rounds of a fixed point — and a sweep worker's
// successive points — reuse one calendar instead of allocating each.
type netState struct {
	q      sim.Calendar[netEvent]
	freeAt []int64 // per module: the time the module frees up
	busy   []int64 // per module: cycles spent in service
}

var statePool = sync.Pool{New: func() any { return new(netState) }}

// zeroed returns buf resized to n zeros, reusing its capacity.
func zeroed(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Result summarizes a network simulation.
type Result struct {
	MeanLatency float64
	MaxLatency  int64
	Requests    int64
	// Utilization is the mean memory-module busy fraction.
	Utilization float64
}

// Simulate runs the interconnect with each processor issuing requests
// as a Poisson process of the given per-processor rate (requests per
// cycle) for the given horizon, and returns latency statistics.
// Requests pick a uniformly random module (uniform traffic).
func Simulate(cfg Config, ratePerProc float64, horizon int64, seed uint64) Result {
	cfg = cfg.withDefaults()
	cfg.validate()
	if ratePerProc < 0 || horizon <= 0 {
		panic("network: invalid rate or horizon")
	}
	src := rng.New(seed)
	st := statePool.Get().(*netState)
	q := &st.q
	freeAt := zeroed(st.freeAt, cfg.Modules)
	busy := zeroed(st.busy, cfg.Modules)

	// Per-call constants, computed once rather than per event.
	avgHops := cfg.AvgHops()
	meanGap := 1 / ratePerProc // only used when ratePerProc > 0
	transit := func() int64 {
		// Randomize hops around the average (+/- 1 hop).
		h := avgHops + float64(src.Intn(3)-1)*0.5
		if h < 1 {
			h = 1
		}
		return int64(h * float64(cfg.HopLatency))
	}

	// Schedule each processor's first issue.
	for p := 0; p < cfg.Processors; p++ {
		if ratePerProc > 0 {
			q.Schedule(int64(src.Exponential(meanGap)), netEvent{isIssue: true, proc: p})
		}
	}

	var res Result
	var latencySum int64
	for {
		ev, ok := q.PopNext()
		if !ok || q.Now() > horizon {
			break
		}
		switch {
		case ev.isIssue:
			// Launch a request toward a random module...
			req := request{issued: q.Now(), module: src.Intn(cfg.Modules)}
			q.After(transit(), netEvent{req: req})
			// ...and schedule this processor's next issue (open loop).
			q.After(int64(src.Exponential(meanGap))+1, netEvent{isIssue: true, proc: ev.proc})
		default:
			m := ev.req.module
			start := q.Now()
			if freeAt[m] > start {
				start = freeAt[m]
			}
			done := start + int64(cfg.ServiceTime)
			busy[m] += int64(cfg.ServiceTime)
			freeAt[m] = done
			// Response transit back; latency measured at the processor.
			complete := done + transit()
			lat := complete - ev.req.issued
			latencySum += lat
			if lat > res.MaxLatency {
				res.MaxLatency = lat
			}
			res.Requests++
		}
	}
	if res.Requests > 0 {
		res.MeanLatency = float64(latencySum) / float64(res.Requests)
	} else {
		res.MeanLatency = cfg.UnloadedLatency()
	}
	var busySum int64
	for _, b := range busy {
		busySum += b
	}
	res.Utilization = float64(busySum) / float64(int64(cfg.Modules)*horizon)

	q.Reset()
	st.freeAt, st.busy = freeAt, busy
	statePool.Put(st)
	return res
}

// FixedPoint couples the network to the multithreading efficiency
// model: a processor with n resident contexts, run length r, and
// switch cost s achieves efficiency E(L) = min(n*r/(r+L+s), r/(r+s)),
// and issues remote requests at rate E/r per cycle — which loads the
// network and determines L. Iterate to a fixed point.
type FixedPointResult struct {
	Latency    float64
	Efficiency float64
	Iterations int
}

// FixedPoint iterates the closed loop until L changes by less than one
// cycle, starting from the unloaded latency.
func FixedPoint(cfg Config, r, s float64, n float64, horizon int64, seed uint64) FixedPointResult {
	cfg = cfg.withDefaults()
	params := func(l float64) float64 {
		return analytic.NewParams(r, l, s).Efficiency(n)
	}
	l := cfg.UnloadedLatency()
	var eff float64
	for iter := 1; ; iter++ {
		eff = params(l)
		rate := eff / r
		res := Simulate(cfg, rate, horizon, seed+uint64(iter))
		next := res.MeanLatency
		if math.Abs(next-l) < 1 || iter >= 20 {
			return FixedPointResult{Latency: next, Efficiency: params(next), Iterations: iter}
		}
		// Damped update for stability near saturation.
		l = 0.5*l + 0.5*next
	}
}
