package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"regreloc/internal/pointstore"
)

// This file defines the content address of one sweep point. A point's
// measurements are a pure function of (engine version, experiment
// definition, experiment seed, population scale, point coordinates):
// the point's RNG stream is derived from the seed and its coordinates
// (rng.DeriveSeed), never from execution order, so identical keys are
// guaranteed to mean byte-identical measurements. That purity is what
// makes per-point memoization (Scale.PointStore) sound.
//
// The key is deliberately coordinate-shaped, not grid-shaped: it
// depends only on the point's own (F, R, L, arch) cell, so the same
// point reached through differently ordered or differently sized
// grids — a re-submitted sweep with 50% overlap, a dashboard growing
// its grid one row at a time — addresses the same entry. Report
// assembly order stays the caller's concern.

// pointSchema versions the key layout. Bump it whenever the preimage
// below changes meaning (new coordinate, different work derivation):
// a persisted point store must never alias entries across schemas.
// v2 added the fidelity tier to the preimage.
const pointSchema = "regreloc-point-v2"

// pointKey returns the content address of the (f, r, l, arch) cell of
// the given experiment at the given seed and scale. The scale enters
// through the fields that shape results — Threads, the per-thread
// work resolved for this run length, and the fidelity tier — so two
// named scales that resolve identically share entries, while Workers,
// Progress, and context (execution-only knobs) are excluded. The tier
// is in the preimage because the same cell measured by different
// backends yields different bytes: tiers must never alias.
func pointKey(experimentID string, seed uint64, scale Scale, f, r, l int, arch string) string {
	return pointKeyWith(pointstore.EngineVersion(), scale.fidelity(), experimentID, seed,
		scale.Threads, scale.workPer(r), f, r, l, arch)
}

// pointKeyWith is pointKey with the engine version injected, so tests
// can pin cross-version distinctness without rebuilding the binary.
func pointKeyWith(engine string, fid Fidelity, experimentID string, seed uint64, threads int, work int64, f, r, l int, arch string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nengine=%s\nfidelity=%s\nexperiment=%s\nseed=%d\nthreads=%d\nwork=%d\nf=%d\nr=%d\nl=%d\narch=%s\n",
		pointSchema, engine, fid, experimentID, seed, threads, work, f, r, l, arch)
	return hex.EncodeToString(h.Sum(nil))
}
