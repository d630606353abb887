// Package workload generates the synthetic thread populations of the
// paper's experiments (Section 3.1): threads with particular fault
// rates (geometric run lengths with mean R), fault service latencies
// (constant mean L for cache faults, exponential for synchronization
// faults), and register requirements (C uniform on [6, 24], or
// homogeneous 8/16 for the Section 3.4 variants).
package workload

import (
	"fmt"

	"regreloc/internal/rng"
	"regreloc/internal/thread"
)

// Spec describes a workload.
type Spec struct {
	// Name labels the workload in results.
	Name string
	// RunLen is the distribution of run lengths between faults
	// (geometric with mean R in the paper).
	RunLen rng.Dist
	// Latency is the distribution of fault service latencies (constant
	// L for cache faults, exponential L for synchronization faults).
	Latency rng.Dist
	// CtxSize is the distribution of per-thread register requirements C.
	CtxSize rng.Dist
	// Work is the distribution of total useful cycles per thread.
	Work rng.Dist
	// Threads is the population size.
	Threads int
}

// Validate checks the spec is complete.
func (s Spec) Validate() error {
	switch {
	case s.RunLen == nil:
		return fmt.Errorf("workload %q: RunLen unset", s.Name)
	case s.Latency == nil:
		return fmt.Errorf("workload %q: Latency unset", s.Name)
	case s.CtxSize == nil:
		return fmt.Errorf("workload %q: CtxSize unset", s.Name)
	case s.Work == nil:
		return fmt.Errorf("workload %q: Work unset", s.Name)
	case s.Threads <= 0:
		return fmt.Errorf("workload %q: Threads = %d", s.Name, s.Threads)
	}
	return nil
}

// GenerateInto materializes the thread population using src; the same
// seed reproduces the same population. It recycles buf's slice
// capacity and Thread structs (buf may be nil), so a sweep harness
// running many simulations back to back stops allocating a fresh
// population per grid point. Recycled threads are fully reinitialized;
// the population does not depend on buf.
func (s Spec) GenerateInto(src *rng.Source, buf []*thread.Thread) []*thread.Thread {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	out := buf
	if cap(out) < s.Threads {
		out = make([]*thread.Thread, s.Threads)
		copy(out, buf) // keep the already-allocated Thread structs
	} else {
		out = out[:s.Threads]
	}
	for i := range out {
		regs := s.CtxSize.Sample(src)
		work := int64(s.Work.Sample(src))
		if work < 1 {
			work = 1
		}
		if out[i] == nil {
			out[i] = thread.New(i, regs, work)
		} else {
			out[i].Init(i, regs, work)
		}
	}
	return out
}

// TotalWork returns the sum of the population's work, used to size
// measurement windows.
func TotalWork(threads []*thread.Thread) int64 {
	var w int64
	for _, t := range threads {
		w += t.WorkLeft
	}
	return w
}

// PaperCtxSize is the paper's main context-size distribution:
// C ~ uniform[6, 24] (Sections 3.2 and 3.3). Note the power-of-two
// rounding biases this toward large contexts (sizes 8/16/32), which
// the paper points out is unfavourable to register relocation.
func PaperCtxSize() rng.Dist { return rng.UniformInt{Lo: 6, Hi: 24} }

// CacheFaults builds a Section 3.2 workload: geometric run lengths
// with mean r, constant latency l.
func CacheFaults(r, l int, ctx rng.Dist, threads int, workPer int64) Spec {
	return Spec{
		Name:    fmt.Sprintf("cache R=%d L=%d", r, l),
		RunLen:  rng.Geometric{MeanValue: float64(r)},
		Latency: rng.Constant{Value: l},
		CtxSize: ctx,
		Work:    rng.Constant{Value: int(workPer)},
		Threads: threads,
	}
}

// SyncFaults builds a Section 3.3 workload: geometric run lengths with
// mean r, exponential latency with mean l.
func SyncFaults(r, l int, ctx rng.Dist, threads int, workPer int64) Spec {
	return Spec{
		Name:    fmt.Sprintf("sync R=%d L=%d", r, l),
		RunLen:  rng.Geometric{MeanValue: float64(r)},
		Latency: rng.Exponential{MeanValue: float64(l)},
		CtxSize: ctx,
		Work:    rng.Constant{Value: int(workPer)},
		Threads: threads,
	}
}

// Combined builds a workload with both fault types, as in the
// experiments the paper mentions running "involving both types of
// faults, with similar results; the main effect was to increase the
// overall fault rate". Cache and synchronization fault processes with
// rates 1/rCache and 1/rSync superpose into a single fault process
// with rate 1/rCache + 1/rSync; each fault is a cache fault with
// probability proportional to its rate. The latency distribution is
// the corresponding mixture.
func Combined(rCache, lCache, rSync, lSync int, ctx rng.Dist, threads int, workPer int64) Spec {
	combinedRate := 1/float64(rCache) + 1/float64(rSync)
	pCache := (1 / float64(rCache)) / combinedRate
	return Spec{
		Name:    fmt.Sprintf("combined Rc=%d Lc=%d Rs=%d Ls=%d", rCache, lCache, rSync, lSync),
		RunLen:  rng.Geometric{MeanValue: 1 / combinedRate},
		Latency: rng.Mixture{P: pCache, A: rng.Constant{Value: lCache}, B: rng.Exponential{MeanValue: float64(lSync)}},
		CtxSize: ctx,
		Work:    rng.Constant{Value: int(workPer)},
		Threads: threads,
	}
}
