package experiment

import (
	"context"
	"fmt"
	"sync"

	"regreloc/internal/pointstore"
	"regreloc/internal/rng"
)

// This file is the one resolution path of every grid sweep. A grid
// experiment is declared once (gridSweep); RunGrid, PointKeys,
// ComputeCells and Plan all derive from that declaration through a
// Plan, so the keys a planner counts are the cells the engine runs, in
// the same order, by construction.

// gridSweep declares one fixed-vs-flexible comparison over an (F, R,
// L) grid: the report's identity and notes, the default axes, the
// architectures (whose order fixes the arch index in per-cell seed
// derivation) and the workload builder.
type gridSweep struct {
	id, title, description string
	notes                  []string
	f, r, l                []int
	archs                  []archSpec
	spec                   specFn
}

// experiment returns the registry entry of a grid sweep that serves
// caller-chosen grids.
func (d *gridSweep) experiment() Experiment {
	return Experiment{
		ID:          d.id,
		Title:       d.title,
		Description: d.description,
		RunGrid: func(seed uint64, scale Scale, g Grids) *Report {
			return d.plan(seed, scale, g).Run(scale)
		},
		PointKeys: func(seed uint64, scale Scale, g Grids) []string {
			return d.plan(seed, scale, g).keys()
		},
		ComputeCells: d.computeCells,
		Plan:         d.plan,
	}
}

// fixed returns the registry entry of a sweep that only ever runs its
// default grid (the ablations): the same plan underneath, no grid API.
func (d *gridSweep) fixed() Experiment {
	return Experiment{
		ID:          d.id,
		Title:       d.title,
		Description: d.description,
		Run: func(seed uint64, scale Scale) *Report {
			return d.plan(seed, scale, Grids{}).Run(scale)
		},
	}
}

// plan returns the plan of one grid; unset axes keep the declared
// defaults. Nothing is enumerated, hashed or built yet.
func (d *gridSweep) plan(seed uint64, scale Scale, g Grids) *Plan {
	return &Plan{sweep: d, seed: seed, scale: scale, grid: g.or(d.f, d.r, d.l)}
}

// computeCells computes an explicit cell list (any subset of any grid,
// in any order) and returns each cell's encoded measurements under the
// key this process derives for it. A requester on a different engine
// version sees its own keys go unanswered (a visible mismatch) instead
// of receiving bytes computed under different semantics.
func (d *gridSweep) computeCells(seed uint64, scale Scale, cells []Cell) ([]CellResult, error) {
	p := &Plan{sweep: d, seed: seed, scale: scale, cells: make([]planCell, len(cells))}
	for i, c := range cells {
		ai := -1
		for j, a := range d.archs {
			if a.name == c.Arch {
				ai = j
			}
		}
		if ai < 0 {
			return nil, fmt.Errorf("experiment %s: unknown arch %q", d.id, c.Arch)
		}
		p.cells[i] = planCell{Cell: c, ai: ai}
	}
	p.hash()
	ms, err := p.resolve(scale)
	if err != nil {
		// Interrupted (context cancelled): some cells are missing. A
		// partial list is useless to the requester, which retries
		// elsewhere, so fail whole.
		return nil, err
	}
	out := make([]CellResult, len(cells))
	for i, c := range p.cells {
		if c.data == nil { // computed without a store: encode here
			c.data = encodeMeasurements(scale.fidelity(), ms[i])
		}
		out[i] = CellResult{Key: c.key, Data: c.data}
	}
	return out, nil
}

// Plan is one grid sweep resolved to its cells, in report order. Each
// cell carries its coordinates, its content address (hashed once, on
// first need) and, after Probe, the bytes the point store held for it.
// Run resolves whatever is still missing and assembles the report, so
// a caller that probes when it admits a request assembles from bytes
// it already holds: an entry evicted in between is not lost. A Plan is
// not safe for concurrent use.
type Plan struct {
	sweep  *gridSweep
	seed   uint64
	scale  Scale // the fields that shape results come from here
	grid   Grids
	cells  []planCell // enumerated from grid on first need
	hashed bool
}

type planCell struct {
	Cell
	ai   int    // index into sweep.archs
	key  string // content address (pointKey), once hashed
	data []byte // encoded measurements in hand, if any
}

// Len returns the number of cells the plan addresses, without
// enumerating them.
func (p *Plan) Len() int {
	if p.cells == nil {
		return len(p.grid.F) * len(p.grid.R) * len(p.grid.L) * len(p.sweep.archs)
	}
	return len(p.cells)
}

// enumerate lists the grid's cells panel-major — F, then R, then L,
// then arch — which is the report's row order.
func (p *Plan) enumerate() {
	if p.cells != nil {
		return
	}
	p.cells = make([]planCell, 0, p.Len())
	for _, f := range p.grid.F {
		for _, r := range p.grid.R {
			for _, l := range p.grid.L {
				for ai, a := range p.sweep.archs {
					p.cells = append(p.cells, planCell{Cell: Cell{F: f, R: r, L: l, Arch: a.name}, ai: ai})
				}
			}
		}
	}
}

// Cached returns how many cells hold stored bytes.
func (p *Plan) Cached() int {
	n := 0
	for _, c := range p.cells {
		if c.data != nil {
			n++
		}
	}
	return n
}

// hash derives every cell's content address.
func (p *Plan) hash() {
	if p.hashed {
		return
	}
	p.enumerate()
	for i := range p.cells {
		c := &p.cells[i]
		c.key = pointKey(p.sweep.id, p.seed, p.scale, c.F, c.R, c.L, c.Arch)
	}
	p.hashed = true
}

// keys returns every cell's content address in cell order.
func (p *Plan) keys() []string {
	p.hash()
	keys := make([]string, len(p.cells))
	for i, c := range p.cells {
		keys[i] = c.key
	}
	return keys
}

// Probe fetches, in one batched store read, the stored bytes of every
// cell that holds none yet. Disk-tier entries are read and verified
// here. Each found entry counts one store hit; absent ones count
// nothing, since the store.Do that later computes them counts the
// miss.
func (p *Plan) Probe(store *pointstore.Store) {
	p.hash()
	n := len(p.cells) - p.Cached()
	if n == 0 {
		return
	}
	open, keys := make([]int, 0, n), make([]string, 0, n)
	for i, c := range p.cells {
		if c.data == nil {
			open = append(open, i)
			keys = append(keys, c.key)
		}
	}
	for j, data := range store.GetBatch(keys) {
		p.cells[open[j]].data = data
	}
}

// Run resolves every cell and returns the report. exec supplies the
// execution-only knobs (Workers, Progress, PointStore, Remote,
// ComputeLimit, OnPoint, context); the fields that shape results
// (Threads, WorkRuns, MinWork, Fidelity) are the plan's own, so a plan
// cannot be run at a different tier or population than its keys name.
// An interrupted run returns the completed cells with a non-nil Err.
func (p *Plan) Run(exec Scale) *Report {
	d := p.sweep
	r := &Report{ID: d.id, Title: d.title, Notes: append([]string(nil), d.notes...)}
	ms, err := p.resolve(exec)
	r.Points, r.Err = flatten(ms), err
	return r
}

// resolve is the single resolution path of every grid cell. The
// sources are tried in order, each on the cells still open:
//
//  1. the point store: bytes the plan holds, plus one Probe for the
//     rest, decoded on the worker pool;
//  2. Scale.Remote: the open cells are offered once, results are
//     matched back by key (unknown keys and undecodable bytes are
//     dropped) and written back to the store;
//  3. local computation: through store.Do, so concurrent sweeps
//     compute a shared cell once, or directly without a store.
//
// Any source may fail or skip a cell; the next one picks it up, so the
// store and the remote tier can only speed a sweep up. Every answer
// lands through settle, which forwards it to OnPoint, and progress
// goes through advance: cells from the store count at once, so a
// mostly cached sweep starts near 100%.
func (p *Plan) resolve(exec Scale) ([][]Measurement, error) {
	sc := exec
	sc.Threads, sc.WorkRuns, sc.MinWork, sc.Fidelity = p.scale.Threads, p.scale.WorkRuns, p.scale.MinWork, p.scale.Fidelity
	fid := sc.fidelity()
	store := sc.PointStore
	p.enumerate()
	if store != nil || sc.Remote != nil {
		p.hash()
	}
	results := make([][]Measurement, len(p.cells))
	progress := sc.progressHook()
	var mu sync.Mutex
	done := 0
	// settle records cell i's answer unless another source got there
	// first (grids may repeat a key, and remote emits may race).
	settle := func(i int, ms []Measurement, data []byte) bool {
		mu.Lock()
		fresh := results[i] == nil
		if fresh {
			results[i], p.cells[i].data = ms, data
		}
		mu.Unlock()
		if fresh && sc.OnPoint != nil {
			sc.OnPoint(ms)
		}
		return fresh
	}
	// advance reports n more settled cells. The hook runs outside mu:
	// a slow consumer must not stall concurrent settles.
	advance := func(n int) {
		if progress == nil || n == 0 {
			return
		}
		mu.Lock()
		done += n
		now := done
		mu.Unlock()
		progress(now, len(p.cells))
	}
	open := func() []int {
		var idx []int
		for i := range results {
			if results[i] == nil {
				idx = append(idx, i)
			}
		}
		return idx
	}

	// 1. Store. Decoding is the dominant cost of a warm sweep, so it
	// runs on the worker pool; it always completes (cancellation is
	// honoured between computed cells below).
	if store != nil {
		p.Probe(store)
	}
	held := make([]int, 0, len(p.cells))
	for i, c := range p.cells {
		if c.data != nil {
			held = append(held, i)
		}
	}
	forEach(context.Background(), sc.workers(), len(held), func(j int) {
		i := held[j]
		if ms, err := decodeMeasurements(fid, p.cells[i].data); err == nil {
			settle(i, ms, p.cells[i].data)
		} else {
			p.cells[i].data = nil // undecodable: computed below
		}
	})
	todo := open()
	advance(len(p.cells) - len(todo))

	// 2. Remote.
	if sc.Remote != nil && len(todo) > 0 {
		byKey := make(map[string][]int, len(todo))
		pts := make([]RemotePoint, 0, len(todo))
		for _, i := range todo {
			c := p.cells[i]
			if _, dup := byKey[c.key]; !dup {
				pts = append(pts, RemotePoint{Key: c.key, F: c.F, R: c.R, L: c.L, Arch: c.Arch})
			}
			byKey[c.key] = append(byKey[c.key], i)
		}
		// A remote-tier error is not a sweep error: every cell it did
		// not deliver is computed below.
		_ = sc.Remote.ComputePoints(sc.Context(), RemoteSweep{
			Experiment: p.sweep.id, Seed: p.seed, Fidelity: fid,
			Threads: sc.Threads, WorkRuns: sc.WorkRuns, MinWork: sc.MinWork,
			Points: pts,
		}, func(key string, data []byte) {
			idxs, ok := byKey[key]
			if !ok {
				return
			}
			ms, err := decodeMeasurements(fid, data)
			if err != nil {
				return
			}
			filled := 0
			for _, i := range idxs {
				if settle(i, ms, data) {
					filled++
				}
			}
			if filled > 0 && store != nil {
				store.Put(key, data)
			}
			advance(filled)
		})
		todo = open()
	}

	// 3. Local.
	err := forEach(sc.Context(), sc.workers(), len(todo), func(j int) {
		i := todo[j]
		var ms []Measurement
		var data []byte
		if store != nil {
			// The leader keeps its own measurements (ms doubles as the
			// "computed here" marker) and never decodes its own bytes.
			var err error
			data, err = store.Do(p.cells[i].key, func() ([]byte, error) {
				ms = p.measure(sc, i)
				return encodeMeasurements(fid, ms), nil
			})
			if ms == nil && err == nil {
				ms, err = decodeMeasurements(fid, data)
			}
			if err != nil {
				// Joined a failed flight, or shared bytes that do not
				// decode: compute here rather than fail the sweep.
				data = nil
			}
		}
		if ms == nil {
			ms = p.measure(sc, i)
		}
		settle(i, ms, data)
		advance(1)
	})
	return results, err
}

// measure computes cell i locally, paying the compute limit first. The
// workload spec is built here, so cells answered from the store or the
// remote tier never build one.
func (p *Plan) measure(sc Scale, i int) []Measurement {
	sc.acquire()
	c := p.cells[i]
	spec := p.sweep.spec(sc, c.R, c.L, sc.workPer(c.R))
	seed := rng.DeriveSeed(p.seed, uint64(c.F), uint64(c.R), uint64(c.L), uint64(c.ai))
	return backendFor(sc.fidelity()).Measure(p.sweep.archs[c.ai], c.F, c.R, c.L, spec, seed)
}
