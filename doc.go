// Package regreloc is a full reproduction of "Register Relocation:
// Flexible Contexts for Multithreading" (Waldspurger & Weihl, ISCA
// 1993) as a Go library.
//
// The paper proposes a minimal hardware mechanism — a register
// relocation mask OR-ed into every instruction's register operand
// fields during decode — that lets system software partition a large
// register file into variable-size thread contexts, with context
// allocation, scheduling, and loading all performed by software. This
// module implements both halves of that story and the evaluation that
// compares them against conventional fixed-size hardware contexts:
//
//   - An instruction-level RISC machine with the RRM decode stage,
//     LDRRM delay slots, multiple-RRM extension (paper Section 5.3),
//     and OR/ADD/MUX/bounds-checked relocation variants, plus an
//     assembler, so the paper's runtime routines (the Figure 3 context
//     switch, the Section 2.5 multi-entry load/unload code, Appendix
//     A's bitmap allocator) execute and are measured rather than
//     assumed.
//   - A discrete-event simulator of a coarsely multithreaded processor
//     node (the paper's PROTEUS substitute) that regenerates every
//     figure: cache-fault experiments (Figure 5), synchronization-fault
//     experiments with competitive two-phase unloading (Figure 6), the
//     Section 3.3 cheap-allocation rerun, the Section 3.4 homogeneous
//     context sizes, combined faults, and the analytic model.
//
// This package is the public facade: it re-exports the library's main
// entry points. The implementation lives under internal/; the cmd/
// directory has CLI tools (rrsim, rrasm, rrvm, rrcheck) and examples/
// has runnable demonstrations.
//
// The facade holds what the README, this comment and the examples
// (examples/ and the package's godoc examples) use. It also keeps the
// extension substrates (SimulateNetwork, NetworkFixedPoint,
// CoupledNodeRun, DefaultCacheStudy and NewAdaptiveLimiter): they are
// the library's only entry points to the interconnect, coupled
// co-simulation and shared-cache studies that DESIGN.md's traceability
// table lists. Everything else stays internal.
package regreloc
