// Package experiment defines and runs the paper's evaluation: one
// registered experiment per table and figure, each producing a Report
// whose rows mirror the series the paper plots. The harness renders
// reports as text tables, ASCII plots (efficiency vs latency, one curve
// per run length, solid/fixed vs dotted/flexible — like Figures 5 and
// 6), and CSV.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"regreloc/internal/node"
	"regreloc/internal/pointstore"
	"regreloc/internal/workload"
)

// Scale controls the cost and execution of a run: population size,
// per-thread work (as a multiple of the run length R), and how many
// sweep points run concurrently.
type Scale struct {
	// Threads is the synthetic thread population per simulation.
	Threads int
	// WorkRuns is per-thread work expressed in average run lengths, so
	// longer-R workloads get proportionally more work per thread.
	WorkRuns int64
	// MinWork floors the per-thread work in cycles.
	MinWork int64
	// Workers bounds the worker pool running sweep points: 0 means one
	// worker per core (runtime.GOMAXPROCS), 1 forces sequential
	// execution, N caps the pool at N goroutines. The produced Report
	// is identical for every setting; per-point seed derivation makes
	// results independent of execution order.
	Workers int
	// Progress, if non-nil, receives (points completed, total points)
	// updates as the run's cells finish. Calls are serialized, so the
	// hook needs no locking of its own; it runs inline on worker
	// goroutines and should return quickly. Progress is scoped to the
	// runs using this Scale, so concurrent experiments do not
	// interleave. Cells resolved from the point store count as
	// completed immediately, so a mostly-cached sweep starts near 100%.
	Progress func(done, total int)
	// PointStore, if non-nil, memoizes individual sweep points: cells
	// already stored are decoded instead of simulated, cells being
	// computed by a concurrent run are joined, and newly simulated
	// cells are stored for the next overlapping sweep. Reports stay
	// byte-identical to a store-less run; see Plan. Fields that
	// shape results (Threads, WorkRuns, MinWork) are part of each
	// point's key, execution-only fields (Workers, Progress, context)
	// are not.
	PointStore *pointstore.Store
	// Remote, if non-nil, is offered the cells a sweep still needs
	// after the point store has answered (see Plan.resolve). Cells the
	// remote tier delivers are matched by content address and verified
	// by decoding; anything missing or undecodable is simulated
	// locally, so Remote accelerates sweeps without ever owning their
	// correctness. Execution-only: not part of point keys.
	Remote PointComputer
	// ComputeLimit, if non-nil, is called before every fresh local
	// point simulation (see Limiter): a hook that counts or holds
	// simulations, not a rate limiter. Cache hits and remote results
	// bypass it. Execution-only: not part of point keys.
	ComputeLimit Limiter
	// Fidelity selects the measurement backend producing each point:
	// the node discrete-event simulator (FidelitySim, the default and
	// the zero value), the instruction-level managed machine
	// (FidelityMachine), or the closed-form analytic model
	// (FidelityAnalytic). The tier shapes results, so it is part of
	// every point's content address and codec header — tiers never
	// share cache entries. See backend.go.
	Fidelity Fidelity
	// OnPoint, if non-nil, receives each resolved point's measurements
	// as the sweep fills them in — cache hits, remote results, and
	// local computations alike, one call per filled grid cell. Calls
	// may arrive concurrently from worker goroutines and in any order;
	// the hook must do its own locking and return quickly.
	// Execution-only: not part of point keys.
	OnPoint func(ms []Measurement)

	// ctx carries cancellation into the engine; set via WithContext.
	// nil means context.Background().
	ctx context.Context
}

// WithContext returns a copy of the scale whose runs are cancelled
// when ctx is. Cancellation is checked between sweep points: running
// cells complete, unstarted ones are abandoned, and the resulting
// Report carries the completed cells plus a non-nil Err.
func (s Scale) WithContext(ctx context.Context) Scale {
	s.ctx = ctx
	return s
}

// Context returns the scale's cancellation context, defaulting to
// context.Background().
func (s Scale) Context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// Scales used by tests, benchmarks, and the CLI.
var (
	// Quick is for unit tests and -bench smoke runs.
	Quick = Scale{Threads: 32, WorkRuns: 100, MinWork: 2000}
	// Full is the default reproduction scale.
	Full = Scale{Threads: 64, WorkRuns: 400, MinWork: 8000}
)

func (s Scale) workPer(r int) int64 {
	w := int64(r) * s.WorkRuns
	if w < s.MinWork {
		w = s.MinWork
	}
	return w
}

// workers resolves Scale.Workers to a concrete pool size.
func (s Scale) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// Measurement is one simulated data point: a (figure, panel, curve,
// x-value) cell.
type Measurement struct {
	Panel string // e.g. "F=64"
	Arch  string // "fixed", "flexible", "flexible-lookup", ...
	R     int    // run length (curve)
	L     int    // latency (x axis)
	F     int    // register file size
	Eff   float64
	Res   node.Result
}

// Report is the output of one experiment.
type Report struct {
	ID          string
	Title       string
	Description string
	// Notes carry per-experiment commentary (e.g. the paper's claimed
	// qualitative result for comparison).
	Notes []string
	// Points are all measurements, ordered panel-major.
	Points []Measurement
	// Err is non-nil when the run was interrupted (typically by
	// context cancellation): Points then holds only the cells that
	// completed, and the report must not be treated — or cached — as a
	// full reproduction.
	Err error
}

// Panels returns the distinct panel names in first-seen order.
func (r *Report) Panels() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Panel] {
			seen[p.Panel] = true
			out = append(out, p.Panel)
		}
	}
	return out
}

// PanelPoints returns the measurements of one panel.
func (r *Report) PanelPoints(panel string) []Measurement {
	var out []Measurement
	for _, p := range r.Points {
		if p.Panel == panel {
			out = append(out, p)
		}
	}
	return out
}

// Grids optionally overrides a sweep experiment's parameter grids —
// register file sizes F, run lengths R, and latencies L. A nil slice
// keeps the experiment's published default for that axis. Grid order
// is significant: it determines the panel-major order of the report's
// points, so two requests with the same values in different orders are
// distinct (and hash differently in content-addressed caches).
type Grids struct {
	F, R, L []int
}

// Upper bounds on grid values that the serving and cluster layers
// accept from a client: thread slots F, run length R and latency L.
// Every value must also be at least 1.
const (
	MaxF = 4096
	MaxR = 1 << 20
	MaxL = 1 << 20
)

// Empty reports whether no axis is overridden.
func (g Grids) Empty() bool { return len(g.F) == 0 && len(g.R) == 0 && len(g.L) == 0 }

// or fills unset axes from the given defaults.
func (g Grids) or(f, r, l []int) Grids {
	if len(g.F) == 0 {
		g.F = f
	}
	if len(g.R) == 0 {
		g.R = r
	}
	if len(g.L) == 0 {
		g.L = l
	}
	return g
}

// Experiment is a registered, runnable reproduction of one table or
// figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(seed uint64, scale Scale) *Report
	// RunGrid, when non-nil, runs the experiment over caller-chosen
	// parameter grids (empty axes keep the defaults). Grid-based sweep
	// experiments set it so services can compute exactly the cells a
	// client asks for; Run is then the zero-override special case.
	RunGrid func(seed uint64, scale Scale, g Grids) *Report
	// PointKeys, when non-nil, returns the content address of every
	// point the corresponding RunGrid call would simulate, in cell
	// order, without running anything. Benchmarks and tests use it to
	// count store coverage; serving plans with Plan instead, which
	// keeps the keys and the probed bytes for assembly.
	PointKeys func(seed uint64, scale Scale, g Grids) []string
	// ComputeCells, when non-nil, computes an explicit list of cells
	// (any subset of any grid) and returns their encoded measurements
	// keyed by content address. Cluster workers use it to serve
	// shard-scoped compute requests; cells resolve through the scale's
	// point store exactly like a full sweep, so worker caches stay
	// effective across overlapping jobs.
	ComputeCells func(seed uint64, scale Scale, cells []Cell) ([]CellResult, error)
	// Plan, when non-nil, enumerates the cells RunGrid would resolve
	// without resolving any (see Plan). A server probes the plan when
	// it admits a request and runs the same plan later.
	Plan func(seed uint64, scale Scale, g Grids) *Plan
}

var registry = map[string]Experiment{}
var registryOrder []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	if e.Run == nil && e.RunGrid != nil {
		rg := e.RunGrid
		e.Run = func(seed uint64, scale Scale) *Report { return rg(seed, scale, Grids{}) }
	}
	registry[e.ID] = e
	registryOrder = append(registryOrder, e.ID)
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range registryOrder {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	return append([]string(nil), registryOrder...)
}

// archSpec names one architecture of a grid sweep and builds its node
// configuration for a register file size.
type archSpec struct {
	name string
	cfg  func(fileSize int) node.Config
}

// specFn builds the workload for one (R, L) cell. It receives the
// scale so population size can enter the spec; it must be a pure
// function of its arguments, because the same builder serves both
// whole-grid sweeps and shard-scoped cell lists (ComputeCells) —
// possibly in different processes, whose results must be
// byte-identical.
type specFn func(scale Scale, rl, l int, work int64) workload.Spec

// panelName is the single source of truth for a cell's panel label, so
// grid sweeps and remote cell computation agree byte-for-byte.
func panelName(f int) string { return fmt.Sprintf("F=%d", f) }

// Curves groups a panel's measurements into (arch, R) curves sorted by
// L, for plotting.
type Curve struct {
	Arch string
	R    int
	L    []int
	Eff  []float64
}

// PanelCurves extracts the curves of one panel, fixed archs first, then
// by ascending R.
func (r *Report) PanelCurves(panel string) []Curve {
	type key struct {
		arch string
		r    int
	}
	byKey := map[key]*Curve{}
	var order []key
	for _, p := range r.PanelPoints(panel) {
		k := key{p.Arch, p.R}
		c, ok := byKey[k]
		if !ok {
			c = &Curve{Arch: p.Arch, R: p.R}
			byKey[k] = c
			order = append(order, k)
		}
		c.L = append(c.L, p.L)
		c.Eff = append(c.Eff, p.Eff)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].arch != order[j].arch {
			return order[i].arch < order[j].arch
		}
		return order[i].r < order[j].r
	})
	out := make([]Curve, 0, len(order))
	for _, k := range order {
		c := byKey[k]
		// Sort points by L.
		idx := make([]int, len(c.L))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return c.L[idx[a]] < c.L[idx[b]] })
		sorted := Curve{Arch: c.Arch, R: c.R}
		for _, i := range idx {
			sorted.L = append(sorted.L, c.L[i])
			sorted.Eff = append(sorted.Eff, c.Eff[i])
		}
		out = append(out, sorted)
	}
	return out
}
