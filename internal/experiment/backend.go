package experiment

import (
	"fmt"
	"sync"

	"regreloc/internal/analytic"
	"regreloc/internal/node"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

// This file is the measurement-backend seam: the thing that turns one
// sweep cell into measurements is an interface with one implementation
// per fidelity tier. The tiers trade cost for fidelity:
//
//	analytic — the paper's Section 3.4 closed-form model, microseconds
//	           per point; exact where the model's assumptions hold,
//	           approximate elsewhere.
//	sim      — the node discrete-event simulator (the default, and the
//	           tier every golden report pins byte-for-byte).
//	machine  — the instruction-level managed machine: every runtime
//	           operation executes as instructions on the 128-register
//	           multi-RRM machine. Highest fidelity, by far the
//	           slowest.
//
// The tier is part of a point's identity: it enters the point-key
// preimage and the codec's entry header, so tiers can never share
// cache entries or be decoded into one another (see pointkey.go,
// pointcodec.go). "adaptive" is not an engine tier — it is a serving
// mode (internal/serve) that answers from the analytic tier and
// refines on the sim tier.

// Fidelity names a measurement backend tier.
type Fidelity string

const (
	// FidelitySim is the node discrete-event simulator, the default.
	FidelitySim Fidelity = "sim"
	// FidelityMachine is the instruction-level managed machine.
	FidelityMachine Fidelity = "machine"
	// FidelityAnalytic is the closed-form Section 3.4 model.
	FidelityAnalytic Fidelity = "analytic"
)

// ParseFidelity validates a wire-format tier name. The empty string
// means sim, so callers that never heard of tiers keep today's
// behaviour. "adaptive" is rejected here on purpose: it is a serving
// mode, not something the engine can run a point at.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelitySim:
		return FidelitySim, nil
	case FidelityMachine, FidelityAnalytic:
		return Fidelity(s), nil
	}
	return "", fmt.Errorf("experiment: unknown fidelity %q (want sim, machine, or analytic)", s)
}

// fidelity resolves the scale's tier, defaulting to sim.
func (s Scale) fidelity() Fidelity {
	if s.Fidelity == "" {
		return FidelitySim
	}
	return s.Fidelity
}

// Backend turns one sweep cell into its measurements at one fidelity
// tier. Measure must be a pure function of its arguments (pointSeed
// included), safe for concurrent use, and must never panic: the serve
// daemon calls it on behalf of remote clients. The returned
// measurements carry the same (Panel, Arch, R, L, F) coordinates at
// every tier so reports from different tiers are cell-comparable.
type Backend interface {
	// Fidelity names the tier; it enters point keys and the codec tag.
	Fidelity() Fidelity
	// Measure computes the (f, r, l) cell of architecture a under spec.
	Measure(a archSpec, f, r, l int, spec workload.Spec, pointSeed uint64) []Measurement
}

// backendFor maps a tier to its backend. The zero-value Fidelity maps
// to sim, so existing call sites are untouched by the seam.
func backendFor(fid Fidelity) Backend {
	switch fid {
	case FidelityMachine:
		return machineBackend{}
	case FidelityAnalytic:
		return analyticBackend{}
	default:
		return simBackend{}
	}
}

// simBackend is the discrete-event node simulator — the tier all
// golden reports pin, so its Measure body must stay byte-identical to
// the pre-seam run closure.
type simBackend struct{}

func (simBackend) Fidelity() Fidelity { return FidelitySim }

func (simBackend) Measure(a archSpec, f, r, l int, spec workload.Spec, pointSeed uint64) []Measurement {
	res := node.Run(a.cfg(f), spec, pointSeed)
	return []Measurement{{
		Panel: panelName(f), Arch: a.name, R: r, L: l, F: f,
		Eff: res.Efficiency, Res: res,
	}}
}

// analyticBackend evaluates the Section 3.4 closed-form model with
// the cell's parameters: R and L are the workload distributions'
// means, S is the architecture's switch cost, and the context count
// is the register file's expected capacity under the workload's
// context-size distribution (capped by the thread population). No
// simulation runs, so a point costs microseconds; Res carries only
// the fields the model defines.
type analyticBackend struct{}

func (analyticBackend) Fidelity() Fidelity { return FidelityAnalytic }

func (analyticBackend) Measure(a archSpec, f, r, l int, spec workload.Spec, _ uint64) []Measurement {
	cfg := a.cfg(f)
	p := analytic.Params{
		R: spec.RunLen.Mean(),
		L: spec.Latency.Mean(),
		S: float64(cfg.SwitchCost),
	}
	n := analytic.ResidentContexts(f, expectedCtxRegs(cfg, f, spec.CtxSize))
	if t := float64(spec.Threads); n > t {
		n = t
	}
	eff := p.Efficiency(n)
	return []Measurement{{
		Panel: panelName(f), Arch: a.name, R: r, L: l, F: f, Eff: eff,
		Res: node.Result{Name: cfg.Name, Efficiency: eff, AvgResident: n},
	}}
}

// Deterministic sampling constants for expectedCtxRegs: the probe is
// part of a point's value, so it must produce the same number in
// every process (cluster workers included). The seed is fixed and
// arbitrary; 512 samples put the sample-mean error well under the
// model's own error against simulation.
const (
	ctxProbeSamples = 512
	ctxProbeSeed    = 0x9e3779b97f4a7c15
)

// ctxRegsMemo caches probeCtxRegs across cells: a grid shares a
// handful of (arch, F, distribution) combinations across its R×L
// cells, and the adaptive serving mode runs the analytic tier on the
// submit path where the 512-sample probe would dominate. Keyed by the
// config name (which encodes the allocator variant everywhere an
// experiment registers one), the file size, and the distribution's
// literal representation — all deterministic, so the memo can never
// disagree with a cold probe.
var ctxRegsMemo sync.Map

// expectedCtxRegs estimates the registers a context occupies under
// the given allocator, including rounding waste.
func expectedCtxRegs(cfg node.Config, f int, ctxSize rng.Dist) float64 {
	key := fmt.Sprintf("%s|%d|%#v", cfg.Name, f, ctxSize)
	if v, ok := ctxRegsMemo.Load(key); ok {
		return v.(float64)
	}
	v := probeCtxRegs(cfg, ctxSize)
	ctxRegsMemo.Store(key, v)
	return v
}

// probeCtxRegs samples requested sizes from the workload's
// context-size distribution; each distinct size is granted once by a
// throwaway allocator to observe what it actually rounds to (slot
// size for the fixed file, powers of two for the bitmap and lookup
// allocators). Probing the allocator instead of hard-coding its
// rounding keeps the analytic tier honest for any architecture an
// experiment registers.
func probeCtxRegs(cfg node.Config, ctxSize rng.Dist) float64 {
	a := cfg.NewAlloc()
	src := rng.New(ctxProbeSeed)
	granted := map[int]int{}
	var sum float64
	for i := 0; i < ctxProbeSamples; i++ {
		c := ctxSize.Sample(src)
		size, ok := granted[c]
		if !ok {
			if ctx, got := a.Alloc(c); got {
				size = ctx.Size
				a.Free(ctx)
			} else {
				// Request exceeds the whole file: count it at face
				// value; the resident-context cap handles the rest.
				size = c
			}
			granted[c] = size
		}
		sum += float64(size)
	}
	return sum / ctxProbeSamples
}

// machineBackend runs the cell on the managed instruction-level
// machine: kernel runtime, Appendix A assembly allocator, and
// two-phase eviction all executing as instructions on the
// 128-register multi-RRM machine. The machine is its own
// micro-architecture — a fixed 128-register file managed by the
// assembly allocator — so the cell's F and arch survive only as
// report coordinates; R and L shape the worker code (run-length inner
// loop, fault latency). Deterministic given the cell: no RNG.
type machineBackend struct{}

func (machineBackend) Fidelity() Fidelity { return FidelityMachine }

// Managed-machine execution parameters. Threads oversubscribe the ~7
// resident contexts like managed-isa; iteration count keeps a cell in
// the tens of milliseconds; the cycle budget bounds a pathological
// cell instead of hanging a serving worker.
const (
	machineThreads   = 10
	machineIters     = 12
	machineMaxRun    = 4096
	machineMaxLat    = 8000
	machineMaxCycles = 40_000_000
)

func (machineBackend) Measure(a archSpec, f, r, l int, spec workload.Spec, _ uint64) []Measurement {
	eff, err := runMachineCell(r, l)
	m := Measurement{
		Panel: panelName(f), Arch: a.name, R: r, L: l, F: f, Eff: eff,
		Res: node.Result{Name: "machine", Efficiency: eff},
	}
	if err == nil {
		m.Res.Completed = machineThreads
	}
	// On error (assembler regression, cycle budget blown) the cell
	// reports zero efficiency rather than panicking a serving worker;
	// the codec keeps Completed = 0 as the visible marker.
	return []Measurement{m}
}

// machineWorkerSource is the kernel worker template with an explicit
// run length: each iteration burns ~runlen cycles in an inner loop
// (two instructions per trip) before faulting for latency cycles.
// Register conventions follow kernel.WorkerSource: R4 = done-flag
// address, R5 = work counter, R6 = scratch, R7 = iteration target.
func machineWorkerSource(runlen, latency int) string {
	trips := runlen / 2
	if trips < 1 {
		trips = 1
	}
	return fmt.Sprintf(`
worker:
	movi r6, %d
worker_run:
	addi r6, r6, -1
	blt r0, r6, worker_run
	addi r5, r5, 1
	movi r6, %d
	fault r6
	blt r5, r7, worker
	movi r6, 1
	sw r6, 0(r4)
worker_spin:
	movi r6, 2
	fault r6
	beq r0, r0, worker_spin
`, trips, latency)
}

// runMachineCell runs the (R, L) cell through runManaged, the same
// measurement managed-isa makes. R and L are clamped to the ISA's
// immediate range; grids beyond it saturate rather than fail to
// assemble.
func runMachineCell(r, l int) (float64, error) {
	if r > machineMaxRun {
		r = machineMaxRun
	}
	if l > machineMaxLat {
		l = machineMaxLat
	}
	if l < 1 {
		l = 1
	}
	return runManaged(machineWorkerSource(r, l), machineThreads, machineIters, machineMaxCycles)
}
