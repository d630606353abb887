package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/stats"
)

// batchLatencyBounds bucket per-worker batch round-trips: a cached
// batch answers in milliseconds, a cold full-scale one can take
// seconds.
var batchLatencyBounds = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 15}

// Fixed parameters of the fan-out client.
const (
	// maxInflight bounds concurrent batch requests across the whole
	// client.
	maxInflight = 16
	// retryBackoff spaces retry attempts, growing linearly per attempt.
	retryBackoff = 100 * time.Millisecond
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// ejectAfter is how many consecutive failures, probe or compute,
	// take a worker out of placement.
	ejectAfter = 2
	// maxAdmitProbes caps the successful probes a worker ejected for
	// compute failures must pass before it rejoins placement.
	maxAdmitProbes = 32
)

// httpClient carries every request to the workers. It has no global
// timeout: compute requests are bounded by the sweep's context,
// probes by probeTimeout.
var httpClient = &http.Client{}

// Config configures the coordinator-side fan-out client.
type Config struct {
	// Workers are the worker base URLs (e.g. http://10.0.0.7:8081).
	// Required, at least one.
	Workers []string
	// BatchSize caps points per compute request (0 = 32). Smaller
	// batches spread a sweep wider and make hedging finer-grained;
	// larger ones amortize HTTP overhead.
	BatchSize int
	// Retries is how many times a failed batch is re-sent, each time
	// re-placed on the surviving workers (0 = 2; negative disables).
	Retries int
	// HedgeAfter launches a duplicate of a still-unanswered batch on
	// the next-ranked healthy worker after this long (0 = 500ms; negative
	// disables hedging). First response wins; results dedupe by point
	// key, so a double answer is harmless by construction.
	HedgeAfter time.Duration
	// HedgeMax caps hedged batches as a fraction of batches sent
	// (0 = 0.1). At least one hedge is always budgeted, so small
	// sweeps still get straggler protection.
	HedgeMax float64
	// ProbeInterval spaces health probes (0 = 2s).
	ProbeInterval time.Duration
	// Logf receives operational messages (ejections, re-admissions,
	// give-ups); nil uses the standard logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 0.1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// workerState tracks one configured worker's health and stats. Guarded
// by Client.mu.
type workerState struct {
	member
	up          bool
	consecFails int
	// computeEjections counts the ejections for compute failures since
	// the worker last computed successfully. A down worker rejoins
	// placement after admitProbes more successful probes: one after a
	// probe ejection, 2^(n-1) (at most maxAdmitProbes) after the n-th
	// compute ejection, so a worker whose /readyz answers while its
	// compute endpoint fails stops costing a retry every probe round.
	computeEjections int
	admitProbes      int
	batches          int64 // compute requests sent
	failures         int64 // compute requests failed
	lat              *stats.Histogram
}

// Client implements experiment.PointComputer over a worker fleet. It
// is safe for concurrent use by many sweeps; Start the prober before
// first use and Stop it on shutdown.
type Client struct {
	cfg Config
	sem chan struct{} // bounds in-flight compute requests

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // configured order, for stable metrics output
	// healthy lists the workers whose up is set, in configured order:
	// placement ranks them. setUpLocked replaces the slice whenever up
	// changes and never edits it in place, so a reader may keep using
	// the slice it read after releasing mu.
	healthy []member

	// Counters (guarded by mu).
	batches    int64 // batch attempts started (incl. retries, excl. hedges)
	batchFails int64 // attempts that returned no usable response
	retries    int64 // re-sends after a failed attempt
	hedges     int64 // duplicate requests launched for stragglers
	hedgeWins  int64 // hedges whose response arrived first
	points     int64 // point results accepted from workers
	unplaced   int64 // points skipped because no worker was healthy
	mismatches int64 // requested keys a successful batch did not answer

	stop chan struct{}
	done chan struct{}
}

// New validates the worker list and returns an unstarted client: all
// workers begin down and join placement as probes succeed (call Start,
// or ProbeNow for one synchronous round).
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	c := &Client{
		cfg:     cfg,
		sem:     make(chan struct{}, maxInflight),
		workers: make(map[string]*workerState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, raw := range cfg.Workers {
		w := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not an absolute URL", raw)
		}
		if _, dup := c.workers[w]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		c.workers[w] = &workerState{member: member{url: w, hash: hash64(w)}, lat: stats.NewHistogram(batchLatencyBounds...)}
		c.order = append(c.order, w)
	}
	return c, nil
}

// Start runs one synchronous probe round (so a freshly booted cluster
// is usable as soon as Start returns, without waiting an interval) and
// then probes in the background until Stop.
func (c *Client) Start() {
	c.ProbeNow()
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.ProbeNow()
			}
		}
	}()
}

// Stop halts background probing. In-flight ComputePoints calls are
// governed by their own contexts and finish normally.
func (c *Client) Stop() {
	select {
	case <-c.stop:
		return // already stopped
	default:
	}
	close(c.stop)
	<-c.done
}

// ProbeNow probes every configured worker once, concurrently, and
// applies ejection/re-admission transitions before returning.
func (c *Client) ProbeNow() {
	var wg sync.WaitGroup
	for _, w := range c.order {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			c.noteResult(url, c.probe(url), "probe")
		}(w)
	}
	wg.Wait()
}

// probe checks one worker's readiness endpoint.
func (c *Client) probe(worker string) error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// noteResult applies one observation of a worker — a probe or a
// compute attempt — to its health state. A successful compute re-admits
// a down worker immediately (it answered; cache affinity wants its keys
// back on it fast), and a successful probe re-admits one whose
// admitProbes it completes; ejectAfter consecutive failures eject an up
// worker.
func (c *Client) noteResult(worker string, err error, kind string) {
	c.mu.Lock()
	ws, ok := c.workers[worker]
	if !ok {
		c.mu.Unlock()
		return
	}
	if err == nil {
		ws.consecFails = 0
		if kind == "compute" {
			ws.computeEjections = 0
			ws.admitProbes = 0
		}
		if ws.up {
			c.mu.Unlock()
			return
		}
		if ws.admitProbes > 1 {
			ws.admitProbes--
			c.mu.Unlock()
			return
		}
		c.setUpLocked(ws, true)
		c.mu.Unlock()
		c.cfg.Logf("cluster: worker %s admitted (%s ok)", worker, kind)
		return
	}
	ws.consecFails++
	if ws.up && ws.consecFails >= ejectAfter {
		c.setUpLocked(ws, false)
		ws.admitProbes = 1
		if kind == "compute" {
			ws.computeEjections++
			ws.admitProbes = min(1<<(ws.computeEjections-1), maxAdmitProbes)
		}
		fails, probes := ws.consecFails, ws.admitProbes
		c.mu.Unlock()
		c.cfg.Logf("cluster: worker %s ejected after %d consecutive failures (%s: %v); re-admission takes %d successful probes",
			worker, fails, kind, err, probes)
		return
	}
	c.mu.Unlock()
}

// setUpLocked sets a worker's up bit and rebuilds the healthy list
// from the up bits. Caller holds c.mu.
func (c *Client) setUpLocked(ws *workerState, up bool) {
	ws.up = up
	c.healthy = nil // append below allocates afresh; readers keep the old slice
	for _, name := range c.order {
		if w := c.workers[name]; w.up {
			c.healthy = append(c.healthy, w.member)
		}
	}
}

// healthyNow returns the current healthy list (see Client.healthy).
func (c *Client) healthyNow() []member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthy
}

// WorkerCount returns how many workers are configured.
func (c *Client) WorkerCount() int { return len(c.order) }

// Ready reports nil when at least quorum workers are healthy.
// Coordinator /readyz delegates here so load balancers do not route
// jobs to an empty cluster.
func (c *Client) Ready(quorum int) error {
	if n := len(c.healthyNow()); n < quorum {
		return fmt.Errorf("cluster: %d/%d workers healthy, quorum %d", n, len(c.order), quorum)
	}
	return nil
}

// batch is one compute request's worth of points, all owned by the
// same worker at partition time.
type batch struct {
	owner string
	pts   []experiment.RemotePoint
}

// ComputePoints implements experiment.PointComputer: partition the
// sweep's points by owner, fan the batches out with bounded
// concurrency, hedge stragglers, retry failures against surviving
// workers, and emit every verified result. Points that end up
// unanswered are simply not emitted — the engine simulates them
// locally.
func (c *Client) ComputePoints(ctx context.Context, sweep experiment.RemoteSweep, emit func(key string, data []byte)) error {
	// One read of the healthy list places the whole sweep, so an
	// ejection mid-partition cannot split it across two memberships.
	c.mu.Lock()
	healthy := c.healthy
	if len(healthy) == 0 {
		c.unplaced += int64(len(sweep.Points))
	}
	c.mu.Unlock()
	if len(healthy) == 0 && len(sweep.Points) > 0 {
		c.cfg.Logf("cluster: %d points unplaced (no healthy workers); computing locally", len(sweep.Points))
		return fmt.Errorf("cluster: no healthy workers")
	}
	assign := make(map[string][]experiment.RemotePoint)
	for _, p := range sweep.Points {
		owner := owners(p.Key, healthy, 1)[0]
		assign[owner] = append(assign[owner], p)
	}

	var batches []batch
	for _, owner := range sortedKeys(assign) {
		pts := assign[owner]
		for start := 0; start < len(pts); start += c.cfg.BatchSize {
			end := start + c.cfg.BatchSize
			if end > len(pts) {
				end = len(pts)
			}
			batches = append(batches, batch{owner: owner, pts: pts[start:end]})
		}
	}

	// Dedupe emissions by key: hedged batches can answer twice, and
	// re-hashed retries can overlap a slow first attempt.
	var emu sync.Mutex
	emitted := make(map[string]bool, len(sweep.Points))
	safeEmit := func(key string, data []byte) {
		emu.Lock()
		if emitted[key] {
			emu.Unlock()
			return
		}
		emitted[key] = true
		emu.Unlock()
		emit(key, data)
	}

	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func(b batch) {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
			case <-ctx.Done():
				return
			}
			c.runBatch(ctx, sweep, b, safeEmit)
		}(b)
	}
	wg.Wait()
	return ctx.Err()
}

// runBatch drives one batch to completion: primary attempt (hedged if
// slow), then up to Retries re-sends with linear backoff, each to the
// batch key's best-ranked currently healthy worker that the batch has
// not yet been sent to, or to the top-ranked one when it has been sent
// to them all. Exhausting every attempt leaves the batch's points to
// the engine's local fallback.
func (c *Client) runBatch(ctx context.Context, sweep experiment.RemoteSweep, b batch, emit func(string, []byte)) {
	target := b.owner
	var sent []string // every worker this batch went to: primary, hedges, retries
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			if !sleepCtx(ctx, time.Duration(attempt)*retryBackoff) {
				return
			}
			// Re-rank against current membership: the original owner may
			// have been ejected since (possibly by this very batch's
			// failure), and then the first untried worker is the keys'
			// new owner, which later sweeps will ask for them. Otherwise
			// it is the next in line, so repeated retries spread instead
			// of hammering one survivor.
			healthy := c.healthyNow()
			ranked := owners(b.pts[0].Key, healthy, len(healthy))
			if len(ranked) == 0 {
				c.cfg.Logf("cluster: batch of %d points abandoned, no healthy workers", len(b.pts))
				return
			}
			target = ranked[0]
			for _, w := range ranked {
				if !slices.Contains(sent, w) {
					target = w
					break
				}
			}
		}
		c.mu.Lock()
		c.batches++
		c.mu.Unlock()
		ok, hedge := c.sendHedged(ctx, sweep, b, target, emit)
		if ok {
			return
		}
		sent = append(sent, target)
		if hedge != "" {
			sent = append(sent, hedge)
		}
		c.mu.Lock()
		c.batchFails++
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
	}
	c.cfg.Logf("cluster: batch of %d points failed %d attempts; computing locally", len(b.pts), c.cfg.Retries+1)
}

// sendResult is one transport attempt's outcome.
type sendResult struct {
	worker  string
	results map[string][]byte
	err     error
}

// sendHedged sends the batch to target, launching one hedge on another
// healthy worker (hedgeTarget) if no response lands within HedgeAfter
// (budget permitting). First usable response wins and cancels the
// loser; results from either are identical by construction, so the
// race needs no reconciliation. It reports whether a response was
// used, and the hedge's worker if it launched one.
func (c *Client) sendHedged(ctx context.Context, sweep experiment.RemoteSweep, b batch, target string, emit func(string, []byte)) (bool, string) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	resCh := make(chan sendResult, 2)
	launch := func(worker string) {
		go func() {
			results, err := c.send(sctx, sweep, b, worker)
			resCh <- sendResult{worker: worker, results: results, err: err}
		}()
	}
	launch(target)
	inflight := 1
	var hedge string

	var hedgeCh <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeCh = t.C
	}

	for {
		select {
		case r := <-resCh:
			inflight--
			if r.err == nil {
				c.noteResult(r.worker, nil, "compute")
				c.mu.Lock()
				c.points += int64(len(r.results))
				if r.worker != target {
					c.hedgeWins++
				}
				if missing := len(b.pts) - len(r.results); missing > 0 {
					c.mismatches += int64(missing)
				}
				c.mu.Unlock()
				for k, data := range r.results {
					emit(k, data)
				}
				return true, hedge
			}
			if sctx.Err() == nil {
				// A real failure, not our own cancellation.
				c.noteResult(r.worker, r.err, "compute")
			}
			if inflight > 0 {
				continue // a hedge is still running; it may yet win
			}
			return false, hedge
		case <-hedgeCh:
			hedgeCh = nil
			alt, ok := c.hedgeTarget(b, target)
			if !ok {
				continue
			}
			hedge = alt
			launch(alt)
			inflight++
		case <-ctx.Done():
			return false, hedge
		}
	}
}

// hedgeTarget picks the hedge destination — the batch key's
// best-ranked healthy worker other than the primary — and spends hedge
// budget. Budget: hedges may not exceed HedgeMax of batches sent, but
// the first hedge is always allowed.
func (c *Client) hedgeTarget(b batch, primary string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var alt string
	for _, w := range owners(b.pts[0].Key, c.healthy, 2) {
		if w != primary {
			alt = w
			break
		}
	}
	if alt == "" {
		return "", false
	}
	budget := int64(c.cfg.HedgeMax * float64(c.batches))
	if budget < 1 {
		budget = 1
	}
	if c.hedges >= budget {
		return "", false
	}
	c.hedges++
	return alt, true
}

// send performs one compute request and returns the results matching
// the requested keys. Mismatched keys (version skew, worker bugs) are
// dropped here so they can never reach the engine; the caller counts
// them off the response size.
func (c *Client) send(ctx context.Context, sweep experiment.RemoteSweep, b batch, worker string) (map[string][]byte, error) {
	reqBody := computeRequest{
		Experiment: sweep.Experiment,
		Seed:       sweep.Seed,
		Fidelity:   string(sweep.Fidelity),
		Threads:    sweep.Threads,
		WorkRuns:   sweep.WorkRuns,
		MinWork:    sweep.MinWork,
		Cells:      make([]wireCell, len(b.pts)),
	}
	want := make(map[string]bool, len(b.pts))
	for i, p := range b.pts {
		reqBody.Cells[i] = wireCell{Key: p.Key, F: p.F, R: p.R, L: p.L, Arch: p.Arch}
		want[p.Key] = true
	}
	raw, err := json.Marshal(&reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+ComputePath, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")

	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	c.observeBatch(worker, time.Since(start).Seconds(), resp.StatusCode == http.StatusOK)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("worker %s: %s: %s", worker, resp.Status, strings.TrimSpace(string(body)))
	}
	var cr computeResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, fmt.Errorf("worker %s: decoding response: %w", worker, err)
	}
	out := make(map[string][]byte, len(cr.Results))
	for _, r := range cr.Results {
		if want[r.Key] && len(r.Data) > 0 {
			out[r.Key] = r.Data
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("worker %s: no requested keys in response (engine version skew?)", worker)
	}
	return out, nil
}

// observeBatch records one compute round-trip on the worker's stats.
func (c *Client) observeBatch(worker string, seconds float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[worker]
	if ws == nil {
		return
	}
	ws.batches++
	if !ok {
		ws.failures++
	}
	ws.lat.Observe(seconds)
}

// WriteProm appends the cluster metrics in the Prometheus text format;
// the coordinator's /metrics handler calls it after the serving-layer
// metrics.
func (c *Client) WriteProm(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()

	fmt.Fprintf(w, "# HELP rrserve_cluster_worker_up Worker health (1 = healthy).\n# TYPE rrserve_cluster_worker_up gauge\n")
	for _, name := range c.order {
		up := 0
		if c.workers[name].up {
			up = 1
		}
		fmt.Fprintf(w, "rrserve_cluster_worker_up{worker=%q} %d\n", name, up)
	}
	fmt.Fprintf(w, "# HELP rrserve_cluster_worker_batches_total Compute requests sent per worker.\n# TYPE rrserve_cluster_worker_batches_total counter\n")
	for _, name := range c.order {
		fmt.Fprintf(w, "rrserve_cluster_worker_batches_total{worker=%q} %d\n", name, c.workers[name].batches)
	}
	fmt.Fprintf(w, "# HELP rrserve_cluster_worker_batch_failures_total Failed compute requests per worker.\n# TYPE rrserve_cluster_worker_batch_failures_total counter\n")
	for _, name := range c.order {
		fmt.Fprintf(w, "rrserve_cluster_worker_batch_failures_total{worker=%q} %d\n", name, c.workers[name].failures)
	}

	fmt.Fprintf(w, "# HELP rrserve_cluster_batch_seconds Compute request round-trip time by worker.\n# TYPE rrserve_cluster_batch_seconds histogram\n")
	for _, name := range c.order {
		h := c.workers[name].lat
		cum := h.Cumulative()
		for i, b := range h.Bounds() {
			fmt.Fprintf(w, "rrserve_cluster_batch_seconds_bucket{worker=%q,le=\"%g\"} %d\n", name, b, cum[i])
		}
		fmt.Fprintf(w, "rrserve_cluster_batch_seconds_bucket{worker=%q,le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
		fmt.Fprintf(w, "rrserve_cluster_batch_seconds_sum{worker=%q} %g\n", name, h.Sum())
		fmt.Fprintf(w, "rrserve_cluster_batch_seconds_count{worker=%q} %d\n", name, h.N())
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP rrserve_cluster_workers_healthy Workers currently healthy.\n# TYPE rrserve_cluster_workers_healthy gauge\nrrserve_cluster_workers_healthy %d\n", len(c.healthy))
	counter("rrserve_cluster_batches_total", "Batch attempts started (including retries).", c.batches)
	counter("rrserve_cluster_batch_failures_total", "Batch attempts that returned no usable response.", c.batchFails)
	counter("rrserve_cluster_retries_total", "Batch re-sends after a failed attempt.", c.retries)
	counter("rrserve_cluster_hedges_total", "Duplicate batch requests launched for stragglers.", c.hedges)
	counter("rrserve_cluster_hedge_wins_total", "Hedged requests whose response arrived first.", c.hedgeWins)
	counter("rrserve_cluster_points_total", "Point results accepted from workers.", c.points)
	counter("rrserve_cluster_unplaced_points_total", "Points computed locally because no worker was healthy.", c.unplaced)
	counter("rrserve_cluster_key_mismatches_total", "Requested keys a successful batch did not answer (version skew).", c.mismatches)
}

// Counters is a snapshot of the client's scalar counters, for tests.
type Counters struct {
	Batches, BatchFails, Retries    int64
	Hedges, HedgeWins               int64
	Points, Unplaced, KeyMismatches int64
}

// Counters returns a snapshot of the client's counters.
func (c *Client) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Batches: c.batches, BatchFails: c.batchFails, Retries: c.retries,
		Hedges: c.hedges, HedgeWins: c.hedgeWins,
		Points: c.points, Unplaced: c.unplaced, KeyMismatches: c.mismatches,
	}
}

func sortedKeys(m map[string][]experiment.RemotePoint) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept the
// full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
