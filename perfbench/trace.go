package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// The traced phase attaches hooks only at the program's public seams —
// Scale.ComputeLimit and Scale.OnPoint, serve.Config.ComputeLimit,
// Job.EventsSince, Server.PointCounters, client-side HTTP spans and
// runtime/metrics — keeps what they record in memory, and turns it into
// the per-layer metrics when the phase ends.

// experimentIDs names the experiments whose run time is a per-layer
// metric: the registry when the benchmark was defined. The reproduce
// workload runs whatever is registered; these are the ones reported.
var experimentIDs = []string{
	"figure3", "figure4", "ablation-dribble", "fidelity-error", "figure5",
	"figure6", "figure6a-cheap", "homogeneous-c8", "homogeneous-c16",
	"mixed-granularity", "combined", "ablation-policy", "ablation-alloc",
	"analytic", "granularity", "cache-interference", "managed-isa",
	"ablation-rounding", "scaling", "context-sizing",
}

// perLayer lists every per-layer metric after the experiment run times,
// in print order. A workload that does not exercise a layer reports 0
// for it.
var perLayer = []struct{ name, unit string }{
	{"experiment.render_s", "s"},
	{"experiment.cells", "count"},
	{"node.sim_mcycles", "Mcycles"},
	{"node.sim_s", "s"},
	{"node.mcycles_per_s", "Mcycles/s"},
	{"experiment.engine_s", "s"},
	{"serve.post_ms_p50", "ms"},
	{"serve.post_ms_p99", "ms"},
	{"serve.get_ms_p50", "ms"},
	{"serve.report_cache_hit_frac", "ratio"},
	{"serve.inline_frac", "ratio"},
	{"experiment.plan_ms_p50", "ms"},
	{"pointstore.probe_ms_p50", "ms"},
	{"experiment.assemble_ms_p50", "ms"},
	{"pointstore.hit_frac", "ratio"},
	{"pointstore.joins", "count"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50.sim", "ms"},
	{"serve.run_ms_p50.overlap", "ms"},
	{"serve.run_ms_p50.adaptive", "ms"},
	{"serve.run_ms_p50.machine", "ms"},
	{"serve.post_ms_p50.adaptive", "ms"},
	{"experiment.sim_cells_per_cell", "ratio"},
	{"serve.rejected_frac", "ratio"},
	{"serve.log_bytes_per_request", "bytes"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.sched_latency_p99_ms", "ms"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
}

// overheadOf names the figures whose traced-minus-untraced difference
// is reported as overhead.<name>: every end-to-end metric and latency
// figure but setup_s, which runs no hooks in either mode and so differs
// by zero by construction.
var overheadOf = []string{
	"wall_s", "cpu_s", "ok_frac", "rss_peak_mb",
	"ttr_p50_ms", "ttr_p90_ms", "ttr_p99_ms", "first_answer_p50_ms",
}

// tracer records one traced phase.
type tracer struct {
	log     io.Writer // where refused percentiles are noted
	mu      sync.Mutex
	vals    map[string]float64   // directly measured per-layer values
	samples map[string][]float64 // per-layer samples, reduced to percentiles

	// Engine hooks (reproduce): sums of hook timestamps, in seconds since
	// base. Each local simulation is one Acquire followed by one OnPoint,
	// so the difference of the sums is the time spent simulating, with
	// no need to pair calls from concurrent workers.
	base                 time.Time
	acquires             int64
	acquireSum, pointSum float64
	cycles               int64
	workers              int

	rt0      []metrics.Sample
	points0  pointstore.Counters
	log0     int64 // server log bytes at begin
	logBytes int64 // server log bytes written during the phase
	requests int   // serve requests seen
	cached   int
	inline   int
	rejected int
}

func newTracer(log io.Writer) *tracer {
	return &tracer{vals: map[string]float64{}, samples: map[string][]float64{}, base: time.Now(), log: log}
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// attach hooks a reproduce experiment's scale: ComputeLimit counts each
// local simulation as it starts, OnPoint as it lands.
func (t *tracer) attach(sc *experiment.Scale) {
	t.workers = sc.Workers
	sc.ComputeLimit = limiterFunc(func() {
		s := time.Since(t.base).Seconds()
		t.mu.Lock()
		t.acquires++
		t.acquireSum += s
		t.mu.Unlock()
	})
	sc.OnPoint = func(ms []experiment.Measurement) {
		s := time.Since(t.base).Seconds()
		var cyc int64
		for _, m := range ms {
			if m.Res.Full != nil {
				cyc += m.Res.Full.Total()
			}
		}
		t.mu.Lock()
		t.pointSum += s
		t.cycles += cyc
		t.mu.Unlock()
	}
}

type limiterFunc func()

func (f limiterFunc) Acquire(context.Context) { f() }

// hookLimiter is the serve-cold server's ComputeLimit on traced runs:
// it never blocks, and counts fresh simulations while on.
type hookLimiter struct {
	on    atomic.Bool
	calls atomic.Int64
}

func (l *hookLimiter) Acquire(context.Context) {
	if l.on.Load() {
		l.calls.Add(1)
	}
}

func (t *tracer) experiment(id string, run, render time.Duration) {
	t.mu.Lock()
	t.vals["experiment."+id+".run_s"] += run.Seconds()
	t.vals["experiment.render_s"] += render.Seconds()
	t.mu.Unlock()
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// begin snapshots the counters a phase reports as deltas; h is nil
// for a workload without a server.
func (t *tracer) begin(h *harness) {
	t.rt0 = readRuntime()
	if h != nil {
		t.points0 = h.srv.PointCounters()
		t.log0 = h.logged.n.Load()
	}
}

// end turns the counter deltas since begin into per-layer values.
func (t *tracer) end(h *harness) {
	rt := readRuntime()
	t.vals["runtime.alloc_mb"] = float64(rt[0].Value.Uint64()-t.rt0[0].Value.Uint64()) / (1 << 20)
	t.vals["runtime.gc_cpu_s"] = rt[1].Value.Float64() - t.rt0[1].Value.Float64()
	t.vals["runtime.sched_latency_p99_ms"] = 1000 * histDeltaQuantile(t.rt0[2].Value.Float64Histogram(), rt[2].Value.Float64Histogram(), 0.99)
	if h == nil {
		return
	}
	c := h.srv.PointCounters()
	hits, misses := c.Hits-t.points0.Hits, c.Misses-t.points0.Misses
	if hits+misses > 0 {
		t.vals["pointstore.hit_frac"] = float64(hits) / float64(hits+misses)
	}
	t.vals["pointstore.joins"] = float64(c.Joins - t.points0.Joins)
	t.logBytes = h.logged.n.Load() - t.log0
}

// histDeltaQuantile returns the upper bound of the bucket holding the
// q-quantile of the events recorded between two histogram readings.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= need {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// warmRequest records one serve-warm request's client spans and how
// the server answered it.
func (t *tracer) warmRequest(rec *warmRec) {
	t.requests++
	if rec.err != nil {
		return
	}
	t.add("serve.post_ms", rec.postMS)
	t.add("serve.get_ms", rec.getMS)
	if rec.st.Cached {
		t.cached++
	}
	if plan := rec.st.Plan; rec.code == 200 && !rec.st.Cached && plan != nil && plan.Cached == plan.Points {
		t.inline++
	}
}

// replay re-resolves the traced phase's sub-grid requests against the
// server's point store, timing the three steps of inline assembly —
// planning the point keys, probing the store, assembling the report —
// which serve.post_ms minus these leaves as serve's own cost. It runs
// after the phase's counters were read.
func (t *tracer) replay(h *harness, reqs []warmReq) {
	for _, q := range reqs {
		if q.repeat >= 0 {
			continue
		}
		e, ok := experiment.Get(q.grid.exp)
		if !ok {
			continue
		}
		g := experiment.Grids{F: q.grid.f, R: q.grid.r, L: q.grid.l}
		sc := replayScale()
		t0 := time.Now()
		keys := e.PointKeys(q.grid.seed, sc, g)
		t1 := time.Now()
		h.srv.Points().Covered(keys)
		t2 := time.Now()
		sc.PointStore = h.srv.Points()
		e.RunGrid(q.grid.seed, sc, g)
		t3 := time.Now()
		t.add("experiment.plan_ms", ms(t1.Sub(t0)))
		t.add("pointstore.probe_ms", ms(t2.Sub(t1)))
		t.add("experiment.assemble_ms", ms(t3.Sub(t2)))
	}
}

// coldRequest records one serve-cold request's lateness, POST span,
// queue wait and run time.
func (t *tracer) coldRequest(q coldReq, rec *coldRec) {
	t.requests++
	if !rec.sent.IsZero() {
		t.add("gen.late_ms", ms(rec.sent.Sub(rec.due)))
	}
	if rec.code == 429 {
		t.rejected++
	}
	if rec.err != nil || rec.posted.IsZero() {
		return
	}
	post := ms(rec.posted.Sub(rec.sent))
	t.add("serve.post_ms", post)
	if q.fidelity == "adaptive" {
		t.add("serve.post_ms.adaptive", post)
	}
	if !rec.got.IsZero() {
		t.add("serve.get_ms", ms(rec.got.Sub(rec.fetched)))
	}
	if !rec.running.IsZero() {
		t.add("serve.queue_wait_ms", ms(rec.running.Sub(rec.posted)))
		t.add("serve.run_ms."+classNames[q.class], ms(rec.ended.Sub(rec.running)))
	}
}

// wasteRatio sets serve-cold's fresh simulations (ComputeLimit
// acquires) per cell requested.
func (t *tracer) wasteRatio(acquires int64, cells int) {
	t.vals["experiment.sim_cells_per_cell"] = float64(acquires) / float64(cells)
}

// layers assembles the per-layer metrics of the traced phase p: the
// layer figures, the phase's latency figures (traced), and the overhead
// of each figure (traced minus plain).
func (t *tracer) layers(p *phase, plain, traced []metric) []metric {
	v := t.vals
	if t.acquires > 0 {
		// Engine figures are per pass over the registry (a reproduce
		// round), so they compare across runs that fit different
		// numbers of passes.
		passes := float64(len(p.rounds))
		var runs float64
		for _, id := range experimentIDs {
			v["experiment."+id+".run_s"] /= passes
			runs += v["experiment."+id+".run_s"]
		}
		v["experiment.render_s"] /= passes
		v["experiment.cells"] = float64(t.acquires) / passes
		v["node.sim_mcycles"] = float64(t.cycles) / 1e6 / passes
		sim := t.pointSum - t.acquireSum
		v["node.sim_s"] = sim / passes
		if sim > 0 {
			v["node.mcycles_per_s"] = float64(t.cycles) / 1e6 / sim
		}
		// sim_s adds up every worker's simulating time; divided by the
		// worker count it is comparable with the experiments' wall time.
		v["experiment.engine_s"] = runs - sim/passes/float64(t.workers)
	}
	if t.requests > 0 {
		v["serve.report_cache_hit_frac"] = float64(t.cached) / float64(t.requests)
		v["serve.inline_frac"] = float64(t.inline) / float64(t.requests)
		v["serve.rejected_frac"] = float64(t.rejected) / float64(t.requests)
		v["serve.log_bytes_per_request"] = float64(t.logBytes) / float64(t.requests)
	}
	for _, q := range []struct {
		name, from string
		p          float64
	}{
		{"serve.post_ms_p50", "serve.post_ms", 50},
		{"serve.post_ms_p99", "serve.post_ms", 99},
		{"serve.get_ms_p50", "serve.get_ms", 50},
		{"experiment.plan_ms_p50", "experiment.plan_ms", 50},
		{"pointstore.probe_ms_p50", "pointstore.probe_ms", 50},
		{"experiment.assemble_ms_p50", "experiment.assemble_ms", 50},
		{"serve.queue_wait_ms_p50", "serve.queue_wait_ms", 50},
		{"serve.queue_wait_ms_p90", "serve.queue_wait_ms", 90},
		{"serve.run_ms_p50.sim", "serve.run_ms.sim", 50},
		{"serve.run_ms_p50.overlap", "serve.run_ms.overlap", 50},
		{"serve.run_ms_p50.adaptive", "serve.run_ms.adaptive", 50},
		{"serve.run_ms_p50.machine", "serve.run_ms.machine", 50},
		{"serve.post_ms_p50.adaptive", "serve.post_ms.adaptive", 50},
		{"gen.late_p50_ms", "gen.late_ms", 50},
		{"gen.late_p99_ms", "gen.late_ms", 99},
	} {
		xs := t.samples[q.from]
		if len(xs) == 0 {
			continue // layer not exercised by this workload
		}
		x, err := percentile(xs, q.p)
		if err != nil {
			fmt.Fprintf(t.log, "perfbench: %s left at 0: %v\n", q.name, err)
			continue
		}
		v[q.name] = x
	}

	var out []metric
	for _, id := range experimentIDs {
		name := "experiment." + id + ".run_s"
		out = append(out, metric{name: name, Value: v[name], Unit: "s"})
	}
	for _, m := range perLayer {
		out = append(out, metric{name: m.name, Value: v[m.name], Unit: m.unit})
	}
	for _, m := range latencies {
		out = append(out, metric{name: m.name, Value: find(traced, m.name).Value, Unit: m.unit})
	}
	units := map[string]string{}
	for _, m := range append(endToEnd, latencies...) {
		units[m.name] = m.unit
	}
	for _, name := range overheadOf {
		out = append(out, metric{name: "overhead." + name,
			Value: find(traced, name).Value - find(plain, name).Value, Unit: units[name]})
	}
	return out
}

func find(ms []metric, name string) metric {
	for _, m := range ms {
		if m.name == name {
			return m
		}
	}
	return metric{}
}
