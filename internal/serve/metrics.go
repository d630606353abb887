package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"regreloc/internal/pointstore"
	"regreloc/internal/stats"
)

// latencyBounds are the job-duration histogram bucket upper bounds in
// seconds, spanning a cached quick sweep (~ms) through a full-scale
// grid (minutes).
var latencyBounds = []float64{0.005, 0.02, 0.1, 0.5, 2, 10, 60, 300}

// submitBounds cover the submit path (validation + planning +
// admission, plus inline assembly on the fast path): sub-millisecond
// to a few seconds.
var submitBounds = []float64{0.0005, 0.002, 0.01, 0.05, 0.25, 1, 5}

// queueWaitBounds cover time from enqueue to worker pickup: from
// idle-pool microseconds to minutes of backlog.
var queueWaitBounds = []float64{0.001, 0.01, 0.1, 0.5, 2, 10, 60, 300}

// fidelityErrBounds bucket the per-cell |analytic − sim| efficiency
// deltas observed during adaptive refinement. Efficiency is in [0, 1],
// so these cover "model is excellent" through "model missed badly".
var fidelityErrBounds = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// maxTenantSeries bounds the per-tenant counter map so header-derived
// tenant names cannot grow the metrics endpoint without limit; past
// it new tenants aggregate under the "other" label.
const maxTenantSeries = 64

// metrics aggregates the daemon's counters. Everything is guarded by
// one mutex: updates happen a handful of times per job, so contention
// is irrelevant next to simulation work.
type metrics struct {
	mu sync.Mutex

	submitted int64 // accepted submissions (new jobs, incl. cache hits)
	coalesced int64 // submissions attached to an in-flight identical job
	rejected  int64 // submissions bounced with 429 (queue full)

	cacheHits   int64 // submissions answered with a stored report
	cacheMisses int64 // submissions whose report was not stored

	byState map[State]int64 // terminal job counts
	running int64           // gauge

	engineRuns  int64 // sweeps actually executed (not cached/coalesced)
	sweepPoints int64 // completed simulation cells across all jobs

	planPoints int64 // sweep points addressed by admitted jobs' plans
	planCached int64 // of those, already in the point store at admission

	latency   map[string]*stats.Histogram // per-experiment job seconds
	submitDur *stats.Histogram            // Submit wall time, all outcomes
	queueWait *stats.Histogram            // enqueue → worker pickup

	tenants map[string]*tenantCounters // per-tenant submission outcomes

	fidelityJobs map[string]int64 // admitted jobs by requested fidelity tier
	refinedCells int64            // adaptive cells refined by the simulator
	fidelityErr  *stats.Histogram // |analytic − sim| per refined cell
}

// tenantCounters are one tenant's submission outcomes, labelled by
// the sanitized X-RR-Tenant value.
type tenantCounters struct {
	submitted int64 // submissions answered 2xx (new, coalesced, cached)
	rejected  int64 // submissions answered 429 (queue full or over share)
}

func newMetrics() *metrics {
	return &metrics{
		byState:      make(map[State]int64),
		latency:      make(map[string]*stats.Histogram),
		submitDur:    stats.NewHistogram(submitBounds...),
		queueWait:    stats.NewHistogram(queueWaitBounds...),
		tenants:      make(map[string]*tenantCounters),
		fidelityJobs: make(map[string]int64),
		fidelityErr:  stats.NewHistogram(fidelityErrBounds...),
	}
}

// tenantLocked resolves a tenant's counter row, capping series
// cardinality. Caller holds m.mu.
func (m *metrics) tenantLocked(tenant string) *tenantCounters {
	tc, ok := m.tenants[tenant]
	if !ok {
		if len(m.tenants) >= maxTenantSeries {
			tenant = "other"
			if tc, ok = m.tenants[tenant]; ok {
				return tc
			}
		}
		tc = &tenantCounters{}
		m.tenants[tenant] = tc
	}
	return tc
}

// observeSubmit records one Submit call: its duration and, when the
// request was well-formed enough to bill a tenant, the outcome.
func (m *metrics) observeSubmit(tenant string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitDur.Observe(seconds)
	switch {
	case status >= 200 && status < 300:
		m.tenantLocked(tenant).submitted++
	case status == 429:
		m.tenantLocked(tenant).rejected++
	}
}

func (m *metrics) observeQueueWait(seconds float64) {
	m.mu.Lock()
	m.queueWait.Observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) incSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *metrics) incCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *metrics) incRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *metrics) incRuns()      { m.mu.Lock(); m.engineRuns++; m.mu.Unlock() }
func (m *metrics) addPoints(n int64) {
	m.mu.Lock()
	m.sweepPoints += n
	m.mu.Unlock()
}

func (m *metrics) jobStarted() { m.mu.Lock(); m.running++; m.mu.Unlock() }

// observeReportLookup counts one admission-time report lookup.
func (m *metrics) observeReportLookup(hit bool) {
	m.mu.Lock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
	m.mu.Unlock()
}

// incFidelityJob counts one accepted submission by requested tier
// (including cache hits and coalesced riders: the label reflects what
// clients ask for, not what the engine ran).
func (m *metrics) incFidelityJob(fidelity string) {
	m.mu.Lock()
	m.fidelityJobs[fidelity]++
	m.mu.Unlock()
}

// observeRefined records one adaptive-refinement cell: the simulator
// replaced an analytic prediction that was off by absErr.
func (m *metrics) observeRefined(absErr float64) {
	m.mu.Lock()
	m.refinedCells++
	m.fidelityErr.Observe(absErr)
	m.mu.Unlock()
}

// addPlan records one admitted job's point-store plan: planned points
// addressed and how many the store already covered.
func (m *metrics) addPlan(planned, covered int64) {
	m.mu.Lock()
	m.planPoints += planned
	m.planCached += covered
	m.mu.Unlock()
}

// jobFinished records a terminal transition; seconds < 0 skips the
// latency histogram (cache hits and never-started cancellations).
func (m *metrics) jobFinished(experimentID string, s State, seconds float64, wasRunning bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if wasRunning {
		m.running--
	}
	m.byState[s]++
	if seconds >= 0 {
		h, ok := m.latency[experimentID]
		if !ok {
			h = stats.NewHistogram(latencyBounds...)
			m.latency[experimentID] = h
		}
		h.Observe(seconds)
	}
}

// meanJobSeconds estimates the mean completed-job duration across all
// experiments, for Retry-After hints. Zero when nothing completed yet.
func (m *metrics) meanJobSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	var sum float64
	for _, h := range m.latency {
		n += h.N()
		sum += h.Sum()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// gauges are point-in-time values owned by the server, passed in at
// render time.
type gauges struct {
	queueDepth int
	queueCap   int

	// Result-store snapshot; pointStore is false when result reuse is
	// disabled (the rrserve_pointstore_* series are then omitted).
	pointStore        bool
	points            pointstore.Counters
	pointEntries      int
	pointDisk         int
	pointBytes        int64
	pointShards       int
	pointSpillPending int

	// Admission-queue snapshot: active (queued + running + inline)
	// jobs per tenant, with the tenant's scheduling weight.
	tenants []tenantBucket
}

// writeProm renders the Prometheus text exposition format.
func (m *metrics) writeProm(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("rrserve_jobs_submitted_total", "Accepted job submissions (including cache hits).", m.submitted)
	counter("rrserve_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.", m.coalesced)
	counter("rrserve_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.", m.rejected)

	fmt.Fprintf(w, "# HELP rrserve_jobs_total Terminal jobs by state.\n# TYPE rrserve_jobs_total counter\n")
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "rrserve_jobs_total{state=%q} %d\n", string(s), m.byState[s])
	}
	gauge("rrserve_jobs_running", "Jobs currently executing on the worker pool.", m.running)
	gauge("rrserve_queue_depth", "Jobs waiting in the FIFO queue.", int64(g.queueDepth))
	gauge("rrserve_queue_capacity", "Configured queue capacity.", int64(g.queueCap))

	counter("rrserve_cache_hits_total", "Submissions answered with a stored report (memory or verified disk).", m.cacheHits)
	counter("rrserve_cache_misses_total", "Submissions whose report was not stored.", m.cacheMisses)

	counter("rrserve_engine_runs_total", "Underlying experiment-engine sweeps executed.", m.engineRuns)
	counter("rrserve_sweep_points_total", "Simulation cells completed across all jobs.", m.sweepPoints)

	counter("rrserve_plan_points_total", "Sweep points addressed by admitted jobs' point-store plans.", m.planPoints)
	counter("rrserve_plan_cached_points_total", "Planned points already covered by the point store at admission.", m.planCached)

	fmt.Fprintf(w, "# HELP rrserve_fidelity_jobs_total Accepted submissions by requested fidelity tier.\n# TYPE rrserve_fidelity_jobs_total counter\n")
	for _, fid := range []string{"sim", "machine", "analytic", "adaptive"} {
		fmt.Fprintf(w, "rrserve_fidelity_jobs_total{fidelity=%q} %d\n", fid, m.fidelityJobs[fid])
	}
	counter("rrserve_fidelity_refined_cells_total", "Adaptive-job cells refined from analytic to simulator fidelity.", m.refinedCells)
	writeHistogram(w, "rrserve_fidelity_error_abs", "Absolute analytic-vs-simulator efficiency error per refined cell.", m.fidelityErr)

	if g.pointStore {
		counter("rrserve_pointstore_hits_total", "Result-store lookups (points and reports) answered from memory or verified disk.", g.points.Hits)
		counter("rrserve_pointstore_misses_total", "Points the result store had to compute.", g.points.Misses)
		counter("rrserve_pointstore_coalesced_total", "Point computations joined onto an identical in-flight simulation.", g.points.Joins)
		counter("rrserve_pointstore_evictions_total", "Result-store entries evicted from the memory tier by the byte budget.", g.points.Evictions)
		counter("rrserve_pointstore_spill_bytes_total", "Result-store payload bytes written to the disk tier.", g.points.SpillBytes)
		counter("rrserve_pointstore_spill_failures_total", "Result-store entries lost because their disk spill failed.", g.points.SpillFails)
		counter("rrserve_pointstore_verify_failures_total", "Result-store disk entries rejected by checksum verification.", g.points.VerifyFails)
		gauge("rrserve_pointstore_entries", "In-memory result-store entries (points and reports).", int64(g.pointEntries))
		gauge("rrserve_pointstore_disk_entries", "Disk-tier result-store entries.", int64(g.pointDisk))
		gauge("rrserve_pointstore_bytes", "In-memory result-store payload bytes.", g.pointBytes)
		gauge("rrserve_pointstore_shards", "Result-store shard count (lock-striping width).", int64(g.pointShards))
		gauge("rrserve_pointstore_spill_pending", "Evicted entries awaiting their background disk write.", int64(g.pointSpillPending))
	}

	// Per-tenant admission metrics.
	fmt.Fprintf(w, "# HELP rrserve_tenant_submitted_total Accepted submissions by tenant.\n# TYPE rrserve_tenant_submitted_total counter\n")
	for _, name := range sortedTenants(m.tenants) {
		fmt.Fprintf(w, "rrserve_tenant_submitted_total{tenant=%q} %d\n", name, m.tenants[name].submitted)
	}
	fmt.Fprintf(w, "# HELP rrserve_tenant_rejected_total Submissions rejected with 429 by tenant (queue full or over in-flight share).\n# TYPE rrserve_tenant_rejected_total counter\n")
	for _, name := range sortedTenants(m.tenants) {
		fmt.Fprintf(w, "rrserve_tenant_rejected_total{tenant=%q} %d\n", name, m.tenants[name].rejected)
	}
	fmt.Fprintf(w, "# HELP rrserve_tenant_active_jobs Active (queued, running, or inline) jobs by tenant.\n# TYPE rrserve_tenant_active_jobs gauge\n")
	for _, b := range g.tenants {
		fmt.Fprintf(w, "rrserve_tenant_active_jobs{tenant=%q} %d\n", b.name, b.active)
	}

	writeHistogram(w, "rrserve_submit_duration_seconds", "Submit-path wall time (validation, planning, admission, inline assembly).", m.submitDur)
	writeHistogram(w, "rrserve_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", m.queueWait)

	// Per-experiment job-duration histograms, Prometheus-style:
	// cumulative buckets plus _sum and _count.
	fmt.Fprintf(w, "# HELP rrserve_job_duration_seconds Job execution time by experiment.\n")
	fmt.Fprintf(w, "# TYPE rrserve_job_duration_seconds histogram\n")
	ids := make([]string, 0, len(m.latency))
	for id := range m.latency {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := m.latency[id]
		cum := h.Cumulative()
		bounds := h.Bounds()
		for i, b := range bounds {
			fmt.Fprintf(w, "rrserve_job_duration_seconds_bucket{experiment=%q,le=\"%g\"} %d\n",
				id, b, cum[i])
		}
		fmt.Fprintf(w, "rrserve_job_duration_seconds_bucket{experiment=%q,le=\"+Inf\"} %d\n",
			id, cum[len(cum)-1])
		fmt.Fprintf(w, "rrserve_job_duration_seconds_sum{experiment=%q} %g\n", id, h.Sum())
		fmt.Fprintf(w, "rrserve_job_duration_seconds_count{experiment=%q} %d\n", id, h.N())
	}
}

func sortedTenants(m map[string]*tenantCounters) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeHistogram renders one unlabelled histogram in the Prometheus
// text format.
func writeHistogram(w io.Writer, name, help string, h *stats.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := h.Cumulative()
	for i, b := range h.Bounds() {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.N())
}
