package experiment

import "context"

// This file defines the seam between the sweep engine and a remote
// compute tier (internal/cluster). A grid sweep reduces to independent,
// content-addressed cells; anything that can turn a list of cells into
// encoded measurement bytes can therefore stand in for the local worker
// pool. The engine stays the source of truth for assembly order and
// correctness: remote results are matched back by point key, verified
// by decoding, and any cell the remote tier fails to deliver is
// simulated locally. A remote tier can accelerate a sweep; it can never
// corrupt one.

// Cell identifies one sweep point by its grid coordinates. The arch is
// the registered architecture name ("fixed", "flexible", ...); the
// experiment's arch list fixes the index that enters per-point seed
// derivation, so a cell's measurements are identical no matter which
// process computes it.
type Cell struct {
	F    int    `json:"f"`
	R    int    `json:"r"`
	L    int    `json:"l"`
	Arch string `json:"arch"`
}

// CellResult is one computed cell: its content address (pointKey) and
// the encoded measurements (pointcodec bytes). Data decodes with
// decodeMeasurements; the key is derived by the computing process, so a
// caller on a different engine version detects the skew as a key
// mismatch instead of silently mixing incompatible results.
type CellResult struct {
	Key  string
	Data []byte
}

// RemotePoint is a cell plus the content address the requester derived
// for it. Remote computers shard and dedupe on Key; the coordinates let
// the remote side rebuild the cell without re-deriving grids.
type RemotePoint struct {
	Key  string
	F    int
	R    int
	L    int
	Arch string
}

// RemoteSweep is one sweep's worth of remote compute work: the
// experiment and the scale fields that shape results (Fidelity,
// Threads, WorkRuns, MinWork — exactly the fields that enter point
// keys), plus the points still missing after the local point store
// has answered. Fidelity must travel so a worker computes the requested
// tier; a worker that ignored it would derive different point keys
// and its results would be dropped as unknown.
type RemoteSweep struct {
	Experiment string
	Seed       uint64
	Fidelity   Fidelity
	Threads    int
	WorkRuns   int64
	MinWork    int64
	Points     []RemotePoint
}

// PointComputer computes sweep cells somewhere other than the local
// worker pool — e.g. a cluster fan-out client. Implementations call
// emit once per completed point with the cell's key and encoded
// measurements; emit is safe to call concurrently and tolerates
// duplicate and unknown keys (both are dropped). ComputePoints returns
// when no more results will be emitted; a non-nil error means the
// remote tier as a whole failed. Either way the engine simulates every
// unemitted cell locally, so a flaky or partial remote tier degrades
// throughput, never correctness.
type PointComputer interface {
	ComputePoints(ctx context.Context, sweep RemoteSweep, emit func(key string, data []byte)) error
}

// Limiter is a hook called once before each fresh local point
// simulation, with the sweep's context. Despite its name, no
// implementation in this repository limits a rate: the benchmark's
// tracer and the tests use it to count fresh simulations, or to hold
// them until the context ends. An Acquire that blocks delays that one
// simulation, and must return once ctx is cancelled. Like Workers and
// Progress it is an execution-only knob: it shapes timing, never
// results, and does not enter point keys. Store hits, joined flights
// and remote results do not call it.
type Limiter interface {
	Acquire(ctx context.Context)
}
