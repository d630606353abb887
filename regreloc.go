package regreloc

import (
	"regreloc/internal/alloc"
	"regreloc/internal/analysis"
	"regreloc/internal/analytic"
	"regreloc/internal/asm"
	"regreloc/internal/cache"
	"regreloc/internal/compiler"
	"regreloc/internal/experiment"
	"regreloc/internal/isa"
	"regreloc/internal/kernel"
	"regreloc/internal/machine"
	"regreloc/internal/network"
	"regreloc/internal/node"
	"regreloc/internal/policy"
	"regreloc/internal/regfile"
	"regreloc/internal/rng"
	"regreloc/internal/swonly"
	"regreloc/internal/trace"
	"regreloc/internal/workload"
)

// Machine simulation: the processor with register relocation hardware.
type (
	// Machine is the instruction-level processor simulator.
	Machine = machine.Machine
	// MachineConfig configures a Machine (register file size,
	// relocation mode, LDRRM delay slots, multiple-RRM extension).
	MachineConfig = machine.Config
	// Program is an assembled binary image.
	Program = asm.Program
	// RelocationMode selects the relocation hardware variant.
	RelocationMode = regfile.Mode
	// Kernel is the software runtime: Figure 3 context switching,
	// Section 2.5 context load/unload, thread spawning and the NextRRM
	// ready ring.
	Kernel = kernel.Kernel
)

// Relocation hardware variants.
const (
	// RelocateOR is the paper's mechanism: absolute = RRM | operand.
	RelocateOR = regfile.ModeOR
	// RelocateADD is the Am29000-style base+offset alternative.
	RelocateADD = regfile.ModeADD
	// RelocateMUX is the footnote-3 variant that also confines threads
	// to their contexts.
	RelocateMUX = regfile.ModeMUX
	// RelocateBounded is OR relocation with a bounds-check trap.
	RelocateBounded = regfile.ModeBounded
)

// NewMachine returns an instruction-level machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// Assemble assembles source text for the machine's ISA.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders one instruction word.
func Disassemble(word uint32) string { return isa.Disassemble(isa.Decode(isa.Word(word))) }

// NewKernel installs the software runtime on a machine.
func NewKernel(m *Machine, a Allocator) *Kernel { return kernel.New(m, a) }

// Context allocation.
type (
	// Allocator allocates power-of-two register contexts.
	Allocator = alloc.Allocator
	// Context is an allocated register block; its base is the RRM.
	Context = alloc.Context
	// AllocCosts is a cycle cost model for allocator operations.
	AllocCosts = alloc.CostModel
)

// Allocator cost models from the paper's Figure 4.
var (
	FlexibleCosts = alloc.FlexibleCosts
	FixedCosts    = alloc.FixedCosts
	LookupCosts   = alloc.LookupCosts
)

// NewBitmapAllocator returns the paper's Appendix A general-purpose
// dynamic allocator for a register file of fileSize registers.
func NewBitmapAllocator(fileSize, maxCtx int, costs AllocCosts) Allocator {
	return alloc.NewBitmap(fileSize, maxCtx, costs)
}

// NewFixedAllocator returns the conventional hardware-context baseline.
func NewFixedAllocator(fileSize, slotSize int) Allocator {
	return alloc.NewFixed(fileSize, slotSize)
}

// NewLookupAllocator returns the Section 3.3 specialized two-size
// allocator.
func NewLookupAllocator(fileSize int, costs AllocCosts) Allocator {
	return alloc.NewLookup(fileSize, costs)
}

// NewBuddyAllocator returns the buddy-system generalization.
func NewBuddyAllocator(fileSize, minSize, maxCtx int, costs AllocCosts) Allocator {
	return alloc.NewBuddy(fileSize, minSize, maxCtx, costs)
}

// Node-level simulation: the paper's evaluation engine.
type (
	// NodeConfig describes a simulated multithreaded processor node.
	NodeConfig = node.Config
	// NodeResult is the outcome of one simulation.
	NodeResult = node.Result
	// Workload describes a synthetic thread population.
	Workload = workload.Spec
	// Dist is a sampling distribution for workload parameters.
	Dist = rng.Dist
	// AnalyticParams is the Section 3.4 efficiency model.
	AnalyticParams = analytic.Params
)

// Unloading policies.
var (
	// NeverUnload keeps contexts resident (Figure 5 experiments).
	NeverUnload policy.Unload = policy.Never{}
	// TwoPhaseUnload is the competitive algorithm (Figure 6).
	TwoPhaseUnload policy.Unload = policy.TwoPhase{}
	// AlwaysUnload evicts on first probe (ablation).
	AlwaysUnload policy.Unload = policy.Always{}
)

// FixedNode returns the conventional baseline node configuration.
func FixedNode(fileSize int, pol policy.Unload, switchCost int64) NodeConfig {
	return node.FixedConfig(fileSize, pol, switchCost)
}

// FlexibleNode returns the register relocation node configuration.
func FlexibleNode(fileSize int, pol policy.Unload, switchCost int64) NodeConfig {
	return node.FlexibleConfig(fileSize, pol, switchCost)
}

// RunNode simulates a workload on a node; identical seeds reproduce
// identical runs.
func RunNode(cfg NodeConfig, spec Workload, seed uint64) NodeResult {
	return node.Run(cfg, spec, seed)
}

// TraceRecorder records a cycle-level activity timeline of a node
// simulation; attach it via NodeConfig.Tracer.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.New(limit) }

// CacheFaultWorkload builds a Section 3.2 workload (geometric run
// lengths, constant latency).
func CacheFaultWorkload(r, l int, ctx Dist, threads int, workPer int64) Workload {
	return workload.CacheFaults(r, l, ctx, threads, workPer)
}

// SyncFaultWorkload builds a Section 3.3 workload (geometric run
// lengths, exponential latency).
func SyncFaultWorkload(r, l int, ctx Dist, threads int, workPer int64) Workload {
	return workload.SyncFaults(r, l, ctx, threads, workPer)
}

// PaperContextSizes is C ~ uniform[6, 24], the paper's main context
// size distribution.
func PaperContextSizes() Dist { return workload.PaperCtxSize() }

// UniformContexts returns C ~ uniform[lo, hi].
func UniformContexts(lo, hi int) Dist { return rng.UniformInt{Lo: lo, Hi: hi} }

// ConstantContexts returns the homogeneous C = n distribution.
func ConstantContexts(n int) Dist { return rng.Constant{Value: n} }

// NewAnalyticParams returns the Section 3.4 model for run length r,
// latency l, and switch cost s.
func NewAnalyticParams(r, l, s float64) AnalyticParams { return analytic.NewParams(r, l, s) }

// Experiments: the per-figure reproduction harness.
type (
	// ExperimentReport is the output of one reproduced table or figure.
	ExperimentReport = experiment.Report
	// ExperimentScale controls population size and work per thread.
	ExperimentScale = experiment.Scale
)

// Experiment scales.
var (
	QuickScale = experiment.Quick
	FullScale  = experiment.Full
)

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiment.IDs() }

// RunExperiment regenerates one table or figure by ID ("figure5",
// "figure6", "figure6a-cheap", "homogeneous-c8", ...).
func RunExperiment(id string, seed uint64, scale ExperimentScale) (*ExperimentReport, bool) {
	e, ok := experiment.Get(id)
	if !ok {
		return nil, false
	}
	return e.Run(seed, scale), true
}

// RenderTable renders a report as text tables (one per register file
// size panel).
func RenderTable(r *ExperimentReport) string { return experiment.Table(r) }

// RenderPlot renders one panel as an ASCII efficiency-vs-latency chart.
func RenderPlot(r *ExperimentReport, panel string) string { return experiment.Plot(r, panel) }

// RenderCSV renders a report's measurements as CSV.
func RenderCSV(r *ExperimentReport) string { return experiment.CSV(r) }

// RenderSummary renders per-panel fixed-vs-flexible speedup summaries.
func RenderSummary(r *ExperimentReport) string { return experiment.Summary(r) }

// Static checking and compiler support.
type (
	// CheckOptions configures the context-boundary checker.
	CheckOptions = analysis.FlatOptions
	// CheckViolation is one out-of-context register reference.
	CheckViolation = analysis.Violation
	// CallGraph carries per-function register usage for requirement
	// analysis.
	CallGraph = compiler.CallGraph
	// SizeAdvice is the compiler's context-size recommendation.
	SizeAdvice = compiler.Advice
)

// CheckProgram statically verifies that a binary stays within its
// declared context (paper Section 2.4) using the flat flow-insensitive
// scan; AnalyzeProgram is the flow-sensitive analyzer.
func CheckProgram(p *Program, opts CheckOptions) []CheckViolation {
	return analysis.Flat(p, opts)
}

// Flow-sensitive static analysis (Section 2.4, grown into a real
// analyzer: CFG, liveness, hazards, derived requirements).
type (
	// AnalysisOptions configures the flow-sensitive analyzer.
	AnalysisOptions = analysis.Options
	// AnalysisResult is a completed analysis (diagnostics, liveness,
	// derived register requirement).
	AnalysisResult = analysis.Result
	// AnalysisDiagnostic is one analyzer finding.
	AnalysisDiagnostic = analysis.Diagnostic
)

// AnalyzeProgram runs the flow-sensitive analyzer over an assembled
// binary: reachability-aware context-boundary checks, LDRRM delay-slot
// hazards, relocation-mask validation, and the minimal context
// Requirement().
func AnalyzeProgram(p *Program, opts AnalysisOptions) *AnalysisResult {
	return analysis.Analyze(p, opts)
}

// AnalyzeSource assembles src and analyzes it, honoring lint:ignore
// suppression comments.
func AnalyzeSource(src string, opts AnalysisOptions) (*AnalysisResult, error) {
	return analysis.AnalyzeSource(src, opts)
}

// NewCallGraph returns an empty call graph for register-requirement
// analysis.
func NewCallGraph() *CallGraph { return compiler.NewCallGraph() }

// AdviseContextSize evaluates the Section 2.4 register/context-size
// tradeoff.
func AdviseContextSize(needed, fileSize int, params AnalyticParams) SizeAdvice {
	return compiler.AdviseContextSize(needed, fileSize, params)
}

// Software-only multithreading (Section 5.1).
type (
	// SWPartition is a compile-time register file partition.
	SWPartition = swonly.Partition
	// SWProfile describes a target for compile-time partitioning.
	SWProfile = swonly.Profile
)

// Software-only target profiles.
var (
	ProfileMIPSR3000 = swonly.MIPSR3000
	ProfileLargeFile = swonly.RegReloc128
)

// PlanSoftwareContexts divides a register file into compile-time
// contexts of the given (arbitrary) sizes.
func PlanSoftwareContexts(p SWProfile, sizes []int) (SWPartition, error) {
	return swonly.Plan(p, sizes)
}

// RelocateAtCompileTime rewrites a program's register operands for one
// compile-time context.
func RelocateAtCompileTime(p *Program, base, size int) (*Program, error) {
	return swonly.Relocate(p, base, size)
}

// SWThreadSource is one thread's code for compile-time weaving; see
// WeaveThreads.
type SWThreadSource = swonly.ThreadSource

// WeaveThreads compiles several threads into one program for a machine
// with no relocation hardware: registers renamed per compile-time
// context, segments chained round-robin with always-taken branches
// (Section 5.1's multiple-code-versions scheme, taken to completion).
func WeaveThreads(threads []SWThreadSource, part SWPartition) (string, error) {
	return swonly.Weave(threads, part)
}

// Extension substrates: the interconnect behind L and the shared cache
// behind R (paper Section 5.2 and the Section 3.4 scaling discussion).
type (
	// NetworkConfig describes a multiprocessor interconnect.
	NetworkConfig = network.Config
	// NetworkResult summarizes an interconnect simulation.
	NetworkResult = network.Result
	// CacheStudy configures a shared-cache interference experiment.
	CacheStudy = cache.Study
	// AdaptiveLimiter tunes the resident-context count at runtime.
	AdaptiveLimiter = cache.Adaptive
)

// SimulateNetwork runs the interconnect at a per-processor request
// rate for the given horizon.
func SimulateNetwork(cfg NetworkConfig, ratePerProc float64, horizon int64, seed uint64) NetworkResult {
	return network.Simulate(cfg, ratePerProc, horizon, seed)
}

// NetworkFixedPoint couples the interconnect to the multithreading
// model and returns the converged latency and efficiency for a node
// with n resident contexts.
func NetworkFixedPoint(cfg NetworkConfig, r, s, n float64, horizon int64, seed uint64) (latency, efficiency float64) {
	res := network.FixedPoint(cfg, r, s, n, horizon, seed)
	return res.Latency, res.Efficiency
}

// CoupledResult is the converged state of a node/network co-simulation.
type CoupledResult = network.CoupledResult

// CoupledNodeRun co-simulates the full node simulator against the
// shared interconnect at round granularity, relaxing the remote-miss
// latency to a fixed point — the whole-system composition of processor
// model, runtime software costs, and network.
func CoupledNodeRun(netCfg NetworkConfig, nodeCfg NodeConfig, spec Workload, horizon int64, seed uint64) CoupledResult {
	return network.CoupledRun(netCfg, nodeCfg, spec, horizon, seed)
}

// DefaultCacheStudy returns the representative Section 5.2 cache
// configuration.
func DefaultCacheStudy() CacheStudy { return cache.DefaultStudy() }

// NewAdaptiveLimiter returns a resident-context controller hill-
// climbing between minN and maxN.
func NewAdaptiveLimiter(startN, minN, maxN int) *AdaptiveLimiter {
	return cache.NewAdaptive(startN, minN, maxN)
}
