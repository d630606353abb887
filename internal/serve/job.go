// Package serve turns the experiment harness into a long-running
// HTTP service: clients POST sweep jobs, a bounded FIFO queue feeds a
// worker pool running the engine with per-job cancellation, and a
// content-addressed result store (internal/pointstore) — sound
// because the engine is byte-identical across worker counts and
// execution orders — keeps finished reports and their sweep points,
// so repeated and overlapping submissions are answered without
// re-simulating. See docs/serve.md for the API reference.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// Request is the wire format of a job submission: which experiment to
// run, at which scale and seed, and (for grid experiments) which F/R/L
// grids. The zero grids run the experiment's published defaults.
type Request struct {
	// Experiment is a registered experiment ID (GET /v1/experiments).
	Experiment string `json:"experiment"`
	// Seed is the simulation seed; the same request always produces
	// the same bytes.
	Seed uint64 `json:"seed"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// F, R, L override the experiment's parameter grids (register file
	// sizes, run lengths, latencies). Only grid experiments accept
	// overrides; order is significant and part of the cache identity.
	F []int `json:"f,omitempty"`
	R []int `json:"r,omitempty"`
	L []int `json:"l,omitempty"`
	// Fidelity selects the measurement tier: "sim" (default, the
	// discrete-event simulator), "machine" (instruction-level managed
	// machine), "analytic" (closed-form model, microseconds per
	// point), or "adaptive" (an immediate analytic answer refined to
	// the byte-identical sim report in the background; see job
	// partials and the cells/bounds events). Non-sim tiers require a
	// grid sweep experiment. Part of the cache identity: tiers never
	// share results.
	Fidelity string `json:"fidelity,omitempty"`

	// Tenant is the admission-control bucket the submission bills
	// against, derived from the X-RR-Tenant header — never from the
	// body, and deliberately excluded from the cache key: who asks does
	// not change the bytes.
	Tenant string `json:"-"`
}

// tenantName resolves the admission bucket, sanitized so arbitrary
// header bytes cannot grow metric label cardinality or escape the
// Prometheus exposition format.
func (q Request) tenantName() string {
	t := q.Tenant
	if t == "" {
		return defaultTenant
	}
	if len(t) > 64 {
		t = t[:64]
	}
	out := make([]byte, 0, len(t))
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// maxGridLen bounds each requested grid axis; with two to five
// architectures per cell this caps a single job at a few thousand
// simulation cells.
const maxGridLen = 32

// normalize fills defaults (scale quick, fidelity sim) so that
// equivalent requests share one canonical form and therefore one
// cache key.
func (q Request) normalize() Request {
	if q.Scale == "" {
		q.Scale = "quick"
	}
	if q.Fidelity == "" {
		q.Fidelity = "sim"
	}
	return q
}

// adaptive reports whether the request asked for the analytic-first
// serving mode.
func (q Request) adaptive() bool { return q.Fidelity == "adaptive" }

// engineFidelity maps the request's tier to the one the engine runs
// for the job body. Adaptive jobs run the simulator: their analytic
// answer is a separate synchronous pass on the submit path, and the
// job's own work is the refinement that converges on the sim report.
func (q Request) engineFidelity() experiment.Fidelity {
	switch q.Fidelity {
	case "machine":
		return experiment.FidelityMachine
	case "analytic":
		return experiment.FidelityAnalytic
	default: // "", "sim", "adaptive"
		return experiment.FidelitySim
	}
}

// simKey returns the cache key of the sim-tier twin of an adaptive
// request. An adaptive job's converged result IS the sim report, byte
// for byte, so completing one may warm the sim entry too (ok=false
// for non-adaptive requests).
func (q Request) simKey() (string, bool) {
	if !q.adaptive() {
		return "", false
	}
	q.Fidelity = "sim"
	return q.Key(), true
}

// scale resolves the request's named scale. Callers validate first.
func (q Request) scale() experiment.Scale {
	sc := experiment.Quick
	if q.Scale == "full" {
		sc = experiment.Full
	}
	sc.Fidelity = q.engineFidelity()
	return sc
}

func (q Request) grids() experiment.Grids {
	return experiment.Grids{F: q.F, R: q.R, L: q.L}
}

// validate rejects malformed submissions before they reach the queue.
func (q Request) validate() error {
	if q.Experiment == "" {
		return fmt.Errorf("missing experiment id")
	}
	e, ok := experiment.Get(q.Experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q (see GET /v1/experiments)", q.Experiment)
	}
	switch q.Scale {
	case "", "quick", "full":
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", q.Scale)
	}
	if !q.grids().Empty() && e.RunGrid == nil {
		return fmt.Errorf("experiment %q does not accept grid overrides", q.Experiment)
	}
	switch q.Fidelity {
	case "", "sim":
	case "machine", "analytic", "adaptive":
		// Non-sim tiers flow through the grid sweep engine (each cell is
		// measured by the backend Scale.Fidelity names); heterogeneous
		// experiments build their own closures and would silently ignore
		// the tier.
		if e.RunGrid == nil {
			return fmt.Errorf("experiment %q is not a grid sweep; fidelity %q requires one", q.Experiment, q.Fidelity)
		}
	default:
		return fmt.Errorf("unknown fidelity %q (want sim, machine, analytic, or adaptive)", q.Fidelity)
	}
	for _, axis := range []struct {
		name string
		vals []int
		max  int
	}{
		{"f", q.F, experiment.MaxF},
		{"r", q.R, experiment.MaxR},
		{"l", q.L, experiment.MaxL},
	} {
		if len(axis.vals) > maxGridLen {
			return fmt.Errorf("grid %s has %d values (max %d)", axis.name, len(axis.vals), maxGridLen)
		}
		for _, v := range axis.vals {
			if v < 1 || v > axis.max {
				return fmt.Errorf("grid %s value %d out of range [1, %d]", axis.name, v, axis.max)
			}
		}
	}
	return nil
}

// cacheSchema versions the canonical key layout. Bump it whenever an
// engine change alters the bytes a request produces (simulator
// semantics, default grids, report encoding): the disk tier outlives
// the process, and a stale key must never match a new request. v3
// added the fidelity tier.
const cacheSchema = "regreloc-job-v3"

// Key returns the request's content address: a SHA-256 over the
// canonical form of every field that influences the result bytes,
// prefixed by the engine version (pointstore.EngineVersion, shared with
// the per-point keys) so results computed by a different binary never
// collide. Server-side tunables (worker counts, timeouts) are
// deliberately excluded — the engine guarantees they cannot change the
// output.
func (q Request) Key() string {
	q = q.normalize()
	h := sha256.New()
	fmt.Fprintf(h, "%s\nengine=%s\nexperiment=%s\nseed=%d\nscale=%s\nfidelity=%s\nf=%v\nr=%v\nl=%v\n",
		cacheSchema, pointstore.EngineVersion(), q.Experiment, q.Seed, q.Scale, q.Fidelity, q.F, q.R, q.L)
	return hex.EncodeToString(h.Sum(nil))
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job tracks one submission through the queue. Identical concurrent
// submissions coalesce onto a single Job (single-flight), so one
// engine run can satisfy many clients.
type Job struct {
	// Immutable after creation.
	ID      string
	seq     int64 // admission order, for listing
	Key     string
	Req     Request
	Created time.Time
	// planPoints/planCached are the submission-time point-store plan:
	// how many sweep points the request addresses and how many were
	// already stored. Zero planPoints means the experiment has no plan
	// (or the store is disabled).
	planPoints int
	planCached int
	// plan is the probed sweep an inline job assembles from, holding
	// the bytes the store had at submission; queued jobs have none.
	// Only the job's runner touches it after admission, and releases
	// it when the run starts (takePlan).
	plan *experiment.Plan
	// tenant is the admission bucket the job holds an in-flight slot
	// in, fixed at submission.
	tenant string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// mu guards the mutable fields below.
	mu        sync.Mutex
	state     State
	cached    bool
	coalesced int
	errMsg    string
	enqueued  time.Time // when the job entered the admission queue
	started   time.Time
	finished  time.Time
	progDone  int
	progTotal int
	result    []byte

	// Event log for the streaming endpoint: every append bumps eventSeq,
	// stores the event for Last-Event-ID replay, and wakes subscribers
	// by closing (and replacing) eventWake. Progress events are batched
	// (progLastEvent tracks the last emitted done count) so a
	// thousand-cell sweep logs tens of events, not thousands.
	events        []Event
	eventSeq      int64
	eventWake     chan struct{}
	progLastEvent int

	// Adaptive-mode state. partial is the immediate analytic report
	// served while the simulator refines; analyticEff indexes its
	// per-cell efficiencies (nil on non-adaptive jobs, and the guard
	// every refinement method checks). refineBuf batches refined cells
	// into "cells" events; the delta accumulators and allDeltas feed
	// the final error bounds.
	partial     []byte
	analyticEff map[string]float64
	refineBuf   []CellDelta
	allDeltas   []CellDelta
	deltaN      int
	deltaSum    float64
	deltaMax    float64
	bounds      *ErrorBounds
}

// cellID names one grid cell for the analytic index; panel and arch
// cannot contain '|' (panel is "F=%d", archs are registered names).
func cellID(panel, arch string, f, r, l int) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d", panel, arch, f, r, l)
}

// maxBoundsCells caps the per-cell delta list attached to the final
// error bounds; larger jobs still get the summary (max/mean), their
// per-cell deltas live only in the streamed cells events.
const maxBoundsCells = 2048

// noteRefined records simulator-tier measurements as they land on an
// adaptive job, computing each cell's delta against the analytic
// answer and batching cells events (one per ~1/64th of the plan).
// Called concurrently from engine workers via Scale.OnPoint; no-op
// after the job reached a terminal state (cancellation stops the
// stream even while stragglers finish). Returns the recorded deltas
// so the caller can feed metrics outside the job lock.
func (j *Job) noteRefined(ms []experiment.Measurement) []CellDelta {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.analyticEff == nil || j.state.terminal() {
		return nil
	}
	var out []CellDelta
	for _, m := range ms {
		a, ok := j.analyticEff[cellID(m.Panel, m.Arch, m.F, m.R, m.L)]
		if !ok {
			continue // cell outside the analytic grid (defensive)
		}
		d := CellDelta{
			Panel: m.Panel, Arch: m.Arch, F: m.F, R: m.R, L: m.L,
			Eff: m.Eff, Analytic: a, AbsErr: absDiff(m.Eff, a),
		}
		j.refineBuf = append(j.refineBuf, d)
		j.deltaN++
		j.deltaSum += d.AbsErr
		if d.AbsErr > j.deltaMax {
			j.deltaMax = d.AbsErr
		}
		if len(j.allDeltas) < maxBoundsCells {
			j.allDeltas = append(j.allDeltas, d)
		}
		out = append(out, d)
	}
	batch := j.planPoints / 64
	if batch < 1 {
		batch = 1
	}
	if len(j.refineBuf) >= batch {
		j.appendEventLocked(Event{Type: EventCells, Cells: j.refineBuf})
		j.refineBuf = nil
	}
	return out
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// finishRefinement flushes the remaining refined cells and publishes
// the job's error bounds, as the last events before the terminal
// state event. No-op unless the job is adaptive and still running.
func (j *Job) finishRefinement() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.analyticEff == nil || j.state.terminal() {
		return
	}
	if len(j.refineBuf) > 0 {
		j.appendEventLocked(Event{Type: EventCells, Cells: j.refineBuf})
		j.refineBuf = nil
	}
	b := &ErrorBounds{
		Cells:            j.deltaN,
		MaxAbs:           j.deltaMax,
		CalibratedMaxAbs: experiment.AnalyticCalibratedMaxAbs,
	}
	if j.deltaN > 0 {
		b.MeanAbs = j.deltaSum / float64(j.deltaN)
	}
	if j.deltaN > 0 && j.deltaN == len(j.allDeltas) {
		b.PerCell = j.allDeltas
	}
	j.bounds = b
	j.appendEventLocked(Event{Type: EventBounds, Bounds: b})
}

// takePlan hands the job's plan to its runner and drops the job's
// reference, so a finished job retained for status queries does not
// pin the bytes the plan held.
func (j *Job) takePlan() *experiment.Plan {
	p := j.plan
	j.plan = nil
	return p
}

// markEnqueued stamps the queue-entry time, for the queue-wait
// histogram, and logs the queued-state event.
func (j *Job) markEnqueued() {
	j.mu.Lock()
	j.enqueued = time.Now()
	j.appendEventLocked(Event{Type: EventState, State: StateQueued})
	j.mu.Unlock()
}

// queueWait returns how long the job sat in the queue, or a negative
// duration if it never went through it (inline assembly).
func (j *Job) queueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.enqueued.IsZero() {
		return -1
	}
	return time.Since(j.enqueued)
}

// Progress is a point-completion counter pair.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Plan is the submission-time point-store coverage of a job: of the
// Points sweep cells the request addresses, Cached were already in the
// point store when the job was admitted (so only the difference needs
// simulating).
type Plan struct {
	Points int `json:"points"`
	Cached int `json:"cached"`
}

// Status is the JSON view of a job returned by the API. Result is the
// canonical report JSON and is only present on done jobs. The server
// writes Partial and Result verbatim after the rest (encodeStatus), so
// they stay the last fields.
type Status struct {
	ID         string    `json:"id"`
	Key        string    `json:"key"`
	Experiment string    `json:"experiment"`
	Seed       uint64    `json:"seed"`
	Scale      string    `json:"scale"`
	Fidelity   string    `json:"fidelity,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	State      State     `json:"state"`
	Cached     bool      `json:"cached"`
	Coalesced  int       `json:"coalesced"`
	Error      string    `json:"error,omitempty"`
	Progress   *Progress `json:"progress,omitempty"`
	Plan       *Plan     `json:"plan,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	ElapsedMS  int64     `json:"elapsed_ms,omitempty"`
	// Bounds are an adaptive job's measured analytic-vs-sim error,
	// published when the refinement completes. Partial is its immediate
	// analytic report, available from the moment Submit returns and
	// dropped once the refined Result lands.
	Bounds  *ErrorBounds    `json:"bounds,omitempty"`
	Partial json.RawMessage `json:"partial,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.progDone, j.progTotal = done, total
	// Emit a progress event per completed cell batch: every ~1/32nd of
	// the sweep (at least one cell), plus the final cell. Keeps the
	// event log (and an SSE client's inbox) a few dozen entries however
	// large the grid is.
	batch := total / 32
	if batch < 1 {
		batch = 1
	}
	if done == total || done-j.progLastEvent >= batch {
		j.progLastEvent = done
		j.appendEventLocked(Event{Type: EventProgress, Done: done, Total: total})
	}
	j.mu.Unlock()
}

// setState moves a non-terminal job to s and reports whether the
// transition happened. Refusing to leave a terminal state is what makes
// the Cancel/worker handoff safe: if Cancel finalizes a queued job just
// before the worker claims it, the worker's transition fails instead of
// resurrecting the job (and later double-closing its done channel).
func (j *Job) setState(s State) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = s
	if s == StateRunning {
		j.started = time.Now()
	}
	j.appendEventLocked(Event{Type: EventState, State: s})
	return true
}

// finalize moves the job to a terminal state exactly once; later calls
// are ignored. It closes the done channel waiters block on.
func (j *Job) finalize(s State, result []byte, err error) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = s
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.appendEventLocked(Event{Type: EventState, State: s, Error: j.errMsg})
	j.mu.Unlock()
	close(j.done)
	if j.cancel != nil {
		j.cancel() // release the context subtree; idempotent
	}
	return true
}

// State returns the job's current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the canonical report bytes of a done job, or nil.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job for the API. withResult controls whether
// the (possibly large) report bytes are attached.
func (j *Job) Status(withResult bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	req := j.Req.normalize()
	st := Status{
		ID:         j.ID,
		Key:        j.Key,
		Experiment: req.Experiment,
		Seed:       req.Seed,
		Scale:      req.Scale,
		Fidelity:   req.Fidelity,
		Tenant:     j.tenant,
		State:      j.state,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Error:      j.errMsg,
		CreatedAt:  j.Created,
	}
	if j.progTotal > 0 {
		st.Progress = &Progress{Done: j.progDone, Total: j.progTotal}
	}
	if j.planPoints > 0 {
		st.Plan = &Plan{Points: j.planPoints, Cached: j.planCached}
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedMS = end.Sub(j.started).Milliseconds()
	}
	if j.partial != nil && j.state != StateDone {
		st.Partial = json.RawMessage(j.partial)
	}
	if j.bounds != nil {
		st.Bounds = j.bounds
	}
	if withResult && j.state == StateDone {
		st.Result = json.RawMessage(j.result)
	}
	return st
}

// encodeStatus writes st as compact JSON. encoding/json marshals the
// small envelope; Partial and Result are appended verbatim, not
// re-validated or re-encoded, because they are already canonical JSON
// (encodeReport output or checksum-verified store entries). A client
// receives them byte for byte as stored.
func encodeStatus(st Status) ([]byte, error) {
	partial, result := st.Partial, st.Result
	st.Partial, st.Result = nil, nil
	env, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	const (
		partialKey = `,"partial":`
		resultKey  = `,"result":`
	)
	// One byte more for the newline writeBody appends.
	buf := make([]byte, 0, len(env)+len(partialKey)+len(partial)+len(resultKey)+len(result)+1)
	buf = append(buf, env[:len(env)-1]...) // all but the closing brace
	if len(partial) > 0 {
		buf = append(append(buf, partialKey...), partial...)
	}
	if len(result) > 0 {
		buf = append(append(buf, resultKey...), result...)
	}
	return append(buf, '}'), nil
}
