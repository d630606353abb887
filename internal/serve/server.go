package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// Config tunes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// QueueCap bounds the FIFO job queue; a full queue rejects
	// submissions with 429 + Retry-After (default 64).
	QueueCap int
	// Workers is the job worker pool size (default 2). Each worker
	// runs one sweep at a time.
	Workers int
	// PointWorkers bounds the engine's per-job sweep-point pool
	// (experiment.Scale.Workers); 0 means one per core. With several
	// job workers, a small value avoids oversubscribing the host.
	PointWorkers int
	// JobTimeout caps one job's execution (default 10 minutes).
	JobTimeout time.Duration
	// PointCacheBytes is the in-memory budget of the result store
	// (default 32 MiB; negative disables all result reuse). The store
	// holds sweep points, so overlapping grids share their common
	// cells, and finished reports under their request key, so exact
	// repeats are answered without assembly.
	PointCacheBytes int64
	// PointCacheDir, when non-empty, holds the result store's disk
	// spill tier and persisted index (points.json).
	PointCacheDir string
	// JobRetention is how long a terminal job (and its result bytes)
	// stays queryable by ID after finishing (default 15 minutes). The
	// content-addressed cache keeps the result itself far longer; only
	// the per-job status record is pruned.
	JobRetention time.Duration
	// MaxJobs caps the job table; past it the earliest finished jobs
	// are pruned regardless of age (default 1024). Non-terminal jobs
	// are never pruned — they are already bounded by QueueCap + Workers.
	MaxJobs int
	// DefaultFidelity, when non-empty, is applied to submissions that
	// do not name a measurement tier themselves: "sim", "machine",
	// "analytic", or "adaptive". Empty keeps the wire default ("sim").
	// An explicit request fidelity always wins.
	DefaultFidelity string
	// TenantWeights maps tenant names (X-RR-Tenant header values) to
	// dequeue weights for the admission queue's stride scheduler: under
	// backlog a weight-4 tenant's jobs are dispatched 4× as often as a
	// weight-1 tenant's. Unlisted tenants get weight 1.
	TenantWeights map[string]int
	// TenantMaxInflight caps one tenant's active jobs (queued, running,
	// or inline-assembling) — past it submissions are rejected with 429
	// + Retry-After so one tenant cannot monopolize the queue. 0 means
	// no per-tenant cap (the global QueueCap still applies).
	TenantMaxInflight int
	// Logger receives structured request and job logs (default: a
	// stderr logger).
	Logger *log.Logger
	// Remote, when non-nil, is handed the sweep cells a job still
	// needs after the point store has answered (experiment.Scale.Remote).
	// A coordinator sets it to the cluster fan-out client; the local
	// pool and the cluster are interchangeable behind this interface.
	Remote experiment.PointComputer
	// ComputeLimit, when non-nil, is called before each of this
	// process's fresh point simulations (experiment.Scale.ComputeLimit,
	// experiment.Limiter). It limits no rate: no daemon flag sets it,
	// and tests and the benchmark's tracer use it to count or hold
	// simulations.
	ComputeLimit experiment.Limiter
	// ReadyCheck, when non-nil, adds a condition to /readyz: a non-nil
	// error answers 503 with the error text. A coordinator uses it to
	// stay unready until a quorum of workers is healthy.
	ReadyCheck func() error
	// ExtraMetrics, when non-nil, is invoked at the end of /metrics to
	// append additional Prometheus text (e.g. the cluster client's
	// per-worker series).
	ExtraMetrics func(w io.Writer)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.PointCacheBytes == 0 {
		c.PointCacheBytes = 32 << 20
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "rrserved ", log.LstdFlags|log.Lmsgprefix)
	}
	return c
}

// Server is the experiment-as-a-service daemon core: a bounded job
// queue, a worker pool driving the experiment engine, a single-flight
// table coalescing identical submissions, and the content-addressed
// result store. Wrap Handler in an http.Server to expose it.
type Server struct {
	cfg    Config
	log    *log.Logger
	points *pointstore.Store // nil when result reuse is disabled
	met    *metrics
	mux    *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	retired  []retiredJob    // terminal jobs in finish order, for pruning
	inflight map[string]*Job // request key → queued/running job
	queue    *jobQueue
	draining bool
	started  bool
	nextID   int64

	wg sync.WaitGroup

	// runJob executes one job and returns (canonical result bytes,
	// completed points). Tests replace it to control timing; the
	// default is (*Server).runExperiment.
	runJob func(ctx context.Context, j *Job) ([]byte, int, error)
}

// New builds a Server (loading the result store's disk index, if
// any). Call Start to launch the workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	switch cfg.DefaultFidelity {
	case "", "sim", "machine", "analytic", "adaptive":
	default:
		return nil, fmt.Errorf("serve: unknown default fidelity %q (want sim, machine, analytic, or adaptive)", cfg.DefaultFidelity)
	}
	var points *pointstore.Store
	if cfg.PointCacheBytes > 0 {
		var err error
		points, err = pointstore.New(cfg.PointCacheBytes, cfg.PointCacheDir)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		points:     points,
		met:        newMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		queue:      newJobQueue(cfg.QueueCap, cfg.TenantMaxInflight, cfg.TenantWeights),
	}
	if points != nil {
		points.SetLogf(cfg.Logger.Printf)
	}
	s.runJob = s.runExperiment
	s.buildMux()
	return s, nil
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown gracefully stops the server: no new submissions are
// accepted, queued and running jobs get until ctx's deadline to
// finish, then their contexts are cancelled, and finally the result
// store's disk index is persisted. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.queue.close() // submit checks draining under mu before enqueueing

	if started {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			// Deadline passed: cancel every in-flight job and wait for
			// the workers to notice (the engine polls between points).
			s.log.Printf("drain deadline reached, cancelling in-flight jobs")
			s.baseCancel()
			<-done
		}
	} else {
		// Never-started server: no workers will ever drain the queue, so
		// finalize the backlog here — otherwise each job's Done channel
		// never closes and clients waiting on it block forever.
		for _, j := range s.queue.drainRemaining() {
			s.settle(j, StateQueued, StateCanceled, nil, errors.New("server shut down before starting"), -1)
		}
	}
	s.baseCancel()
	if s.points == nil {
		return nil
	}
	var errs []error
	if err := s.points.SaveIndex(); err != nil {
		errs = append(errs, fmt.Errorf("serve: persisting point-store index: %w", err))
	}
	// Close even when the save failed: it releases the dir's advisory
	// lock so a restarting process (or a test reopening the dir) can
	// claim it.
	if err := s.points.Close(); err != nil {
		errs = append(errs, fmt.Errorf("serve: closing point store: %w", err))
	}
	return errors.Join(errs...)
}

// Submit validates and enqueues a request, returning the job (which
// may be an existing in-flight job the submission coalesced onto, or
// an already-done cached job) plus the HTTP status describing what
// happened: 201 (new job queued), 200 (coalesced, cache hit, or
// assembled entirely from the point store), 429 (queue full or tenant
// over its in-flight share), 503 (draining), 400 (invalid).
func (s *Server) Submit(req Request) (*Job, int, error) {
	start := time.Now()
	j, status, err := s.submit(req)
	s.met.observeSubmit(req.tenantName(), status, time.Since(start).Seconds())
	return j, status, err
}

func (s *Server) submit(req Request) (*Job, int, error) {
	if req.Fidelity == "" && s.cfg.DefaultFidelity != "" {
		req.Fidelity = s.cfg.DefaultFidelity
	}
	if err := req.validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	req = req.normalize()
	key := req.Key()

	// Look the report up first: an exact repeat needs nothing else —
	// no point keys, no store probe, no analytic phase. A miss probes
	// the request's plan once, unless an identical job is in flight:
	// the submission will ride that job, so the bytes would go unused.
	// The plan keeps the bytes it found, so a fully covered job
	// assembles from them. Both reads happen before the server lock: a
	// disk-tier hit reads and verifies files, which must not stall
	// other submissions. For adaptive requests the plan covers the sim
	// tier — the refinement the job will run — because req.scale()
	// resolves adaptive to the simulator.
	var (
		stored []byte
		found  bool
		plan   *experiment.Plan
	)
	if s.points != nil {
		stored, found = s.points.Get(key)
		if e, _ := experiment.Get(req.Experiment); e.Plan != nil {
			plan = e.Plan(req.Seed, req.scale(), req.grids())
			if !found && !s.inflightKey(key) {
				plan.Probe(s.points)
			}
		}
	}

	// Adaptive submissions get their analytic answer right here on the
	// submit path, before admission: the closed-form tier costs
	// microseconds per cell, so the client leaves with a complete
	// approximate report no matter what the queue looks like.
	var partial *partialResult
	if req.adaptive() && !found {
		p, err := s.analyticPhase(req)
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("analytic phase: %w", err)
		}
		partial = p
	}

	j, status, inline, err := s.admit(req, key, stored, found, plan, partial)
	if err == nil {
		s.met.incFidelityJob(req.Fidelity)
	}
	if inline {
		// Every point was in the plan's hands at admission: assembly
		// decodes bytes the job already holds, so it runs on the
		// submitter's goroutine instead of taking a queue slot and a
		// worker, and eviction since the probe cannot make it simulate.
		s.runOne(j)
	}
	return j, status, err
}

// inflightKey reports whether a job for the request key is queued or
// running.
func (s *Server) inflightKey(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inflight[key]
	return ok
}

// admit is Submit's locked section. It returns inline=true when the
// job was admitted for synchronous assembly from its plan's bytes
// (registered in-flight and holding a tenant slot, but not queued);
// the caller must then run it. A job finishing between the report
// lookup and here only costs this submission an assembly of the same
// bytes.
func (s *Server) admit(req Request, key string, stored []byte, found bool, plan *experiment.Plan, partial *partialResult) (j *Job, status int, inline bool, err error) {
	tenant := req.tenantName()
	var planned, covered int
	if plan != nil {
		planned = plan.Len()
		covered = planned
		if !found {
			covered = plan.Cached()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, false, errors.New("server is draining")
	}
	s.pruneJobsLocked()

	// Single-flight: identical request already queued or running. The
	// rider consumes no queue slot or tenant share — it attaches to
	// work already admitted (possibly under another tenant).
	if j, ok := s.inflight[key]; ok {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.met.incCoalesced()
		return j, http.StatusOK, false, nil
	}

	// The report already exists in the result store: materialize a
	// terminal job so the client gets the uniform job interface.
	s.met.observeReportLookup(found)
	if found {
		// The plan only counts the report's cells, all of them answered.
		j := s.newJobLocked(key, req, planned, covered, nil, nil)
		j.cached = true
		j.state = StateDone
		j.result = stored
		j.finished = time.Now()
		j.appendEventLocked(Event{Type: EventState, State: StateDone, Cached: true})
		close(j.done)
		j.cancel() // born terminal: release its context registration now
		s.retireLocked(j)
		s.met.incSubmitted()
		s.met.jobFinished(req.Experiment, StateDone, -1, false)
		return j, http.StatusOK, false, nil
	}

	// Admission control: the job will do real work, so it needs a
	// tenant in-flight slot — held from here until the job reaches a
	// terminal state (released next to every jobFinished call).
	if err := s.queue.reserve(tenant); err != nil {
		s.met.incRejected()
		return nil, http.StatusTooManyRequests, false, err
	}
	s.met.addPlan(int64(planned), int64(covered))

	// Point-store fast path: the report is not stored (different grid
	// order, or evicted) but the probe found every point the request
	// addresses. Hand the job back for inline assembly.
	if planned > 0 && covered == planned {
		j := s.newJobLocked(key, req, planned, covered, plan, partial)
		s.inflight[key] = j
		s.met.incSubmitted()
		return j, http.StatusOK, true, nil
	}

	// Bounded, tenant-fair queue with backpressure. A queued job keeps
	// no plan: it may wait long, and its run probes again anyway for
	// points stored meanwhile.
	j = s.newJobLocked(key, req, planned, covered, nil, partial)
	if qerr := s.queue.enqueue(j); qerr != nil {
		delete(s.jobs, j.ID)
		j.cancel() // never ran: release its context registration
		s.queue.release(tenant)
		s.met.incRejected()
		return nil, http.StatusTooManyRequests, false, qerr
	}
	j.markEnqueued()
	s.inflight[key] = j
	s.met.incSubmitted()
	return j, http.StatusCreated, false, nil
}

// newJobLocked allocates and registers a job. Caller holds s.mu. A
// non-nil plan is the probed plan an inline job assembles from. A
// non-nil partial makes the job adaptive: the analytic answer attaches
// before any other event, so EventPartial is always event 1 and every
// subscriber knows a partial is fetchable before they see the job
// move.
func (s *Server) newJobLocked(key string, req Request, planned, covered int, plan *experiment.Plan, partial *partialResult) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:         fmt.Sprintf("j%06d", s.nextID),
		seq:        s.nextID,
		Key:        key,
		Req:        req,
		Created:    time.Now(),
		tenant:     req.tenantName(),
		planPoints: planned,
		planCached: covered,
		plan:       plan,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		eventWake:  make(chan struct{}),
		state:      StateQueued,
	}
	if partial != nil {
		j.partial = partial.data
		j.analyticEff = partial.eff
		j.appendEventLocked(Event{Type: EventPartial, Fidelity: "analytic", Total: partial.cells})
	}
	s.jobs[j.ID] = j
	return j
}

// partialResult is the submit-path analytic answer of an adaptive job:
// the encoded report plus the per-cell efficiency index the refinement
// compares simulator points against.
type partialResult struct {
	data  []byte
	eff   map[string]float64
	cells int
}

// analyticPhase runs an adaptive request's grid through the analytic
// backend synchronously. It shares the server's point store, so
// repeated adaptive submissions over overlapping grids assemble their
// partials from cached analytic-tier points.
func (s *Server) analyticPhase(req Request) (*partialResult, error) {
	e, ok := experiment.Get(req.Experiment)
	if !ok || e.RunGrid == nil {
		return nil, fmt.Errorf("experiment %q has no grid sweep", req.Experiment)
	}
	sc := req.scale()
	sc.Fidelity = experiment.FidelityAnalytic
	sc.PointStore = s.points
	rep := e.RunGrid(req.Seed, sc, req.grids())
	if rep.Err != nil {
		return nil, rep.Err
	}
	data, err := encodeReport(rep)
	if err != nil {
		return nil, err
	}
	eff := make(map[string]float64, len(rep.Points))
	for _, m := range rep.Points {
		eff[cellID(m.Panel, m.Arch, m.F, m.R, m.L)] = m.Eff
	}
	return &partialResult{data: data, eff: eff, cells: len(rep.Points)}, nil
}

// retiredJob is a terminal job's place in the pruning FIFO.
type retiredJob struct {
	id string
	at time.Time // when the job finished
}

// retireLocked appends a job that just finished to the back of the
// pruning FIFO. Caller holds s.mu, under which every job finishes, so
// the FIFO is in finish order.
func (s *Server) retireLocked(j *Job) {
	s.retired = append(s.retired, retiredJob{j.ID, time.Now()})
}

// pruneJobsLocked bounds the job table. It drops jobs from the front of
// the finish-order FIFO while the table exceeds MaxJobs or the front
// job finished more than JobRetention ago, so it touches only the jobs
// it removes, and a queued or long-running job never holds up the
// finished jobs behind it. Result bytes live on in the
// content-addressed store; only the per-job status record (and its ID)
// disappears, so a long-running daemon's memory tracks the store
// budget, not every submission ever made. Caller holds s.mu.
func (s *Server) pruneJobsLocked() {
	cutoff := time.Now().Add(-s.cfg.JobRetention)
	for len(s.retired) > 0 {
		front := s.retired[0]
		if len(s.jobs) <= s.cfg.MaxJobs && !front.at.Before(cutoff) {
			return
		}
		delete(s.jobs, front.id)
		s.retired[0] = retiredJob{} // let the ID be collected
		s.retired = s.retired[1:]
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: queued jobs finalize immediately, running
// jobs have their context cancelled and finalize when the engine
// notices. It reports whether the job existed and was non-terminal.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.cancel()
	// Finalize a queued job now; the worker skips already-terminal jobs.
	s.settle(j, StateQueued, StateCanceled, nil, context.Canceled, -1)
	return j, true
}

// settle moves j from state from to the terminal state final and
// settles the server's books, all under s.mu; it does nothing if j has
// left from, so a canceller and a worker racing on one job account for
// it once. The job leaves the in-flight table, frees its tenant slot
// and is counted before it finishes: a client that saw it finish then
// finds the stored report instead of coalescing onto the finished job,
// its tenant slot free, and the metrics counting it. A run stores its
// report before settling, so a concurrent submission finds one or the
// other. seconds is the run's duration, negative for a job that never
// ran.
func (s *Server) settle(j *Job, from, final State, result []byte, err error, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.StateNow() != from {
		return
	}
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.queue.release(j.tenant)
	s.met.jobFinished(j.Req.Experiment, final, seconds, from == StateRunning)
	j.finalize(final, result, err)
	s.retireLocked(j)
}

// worker drains the queue until Shutdown closes it (and the backlog
// is popped dry).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if wait := j.queueWait(); wait >= 0 {
			s.met.observeQueueWait(wait.Seconds())
		}
		s.runOne(j)
	}
}

// runOne executes a single job end to end.
func (s *Server) runOne(j *Job) {
	// A job cancelled before it runs must not keep its plan's bytes
	// for as long as it is retained.
	defer j.takePlan()
	if err := j.ctx.Err(); err != nil {
		// Cancelled (or shut down) while queued. settle is a no-op if
		// Cancel already settled the job.
		s.settle(j, StateQueued, StateCanceled, nil, err, -1)
		return
	}
	// Claim the job under s.mu, where settle checks the state. The
	// transition fails only when Cancel settled the job since the
	// context check above; running it anyway would re-finalize and
	// double-close done. Once claimed, Cancel leaves it to this run.
	s.mu.Lock()
	claimed := j.setState(StateRunning)
	s.mu.Unlock()
	if !claimed {
		return
	}

	ctx, cancel := context.WithTimeout(j.ctx, s.cfg.JobTimeout)
	defer cancel()
	s.met.jobStarted()
	s.met.incRuns()
	start := time.Now()

	data, points, err := s.runJob(ctx, j)
	seconds := time.Since(start).Seconds()
	s.met.addPoints(int64(points))

	var final State
	switch {
	case err == nil:
		final = StateDone
		if s.points != nil {
			s.points.Put(j.Key, data)
			if sk, ok := j.Req.simKey(); ok {
				// An adaptive job's converged bytes ARE the sim report;
				// warm the sim-tier twin so a later fidelity=sim
				// submission of the same request is a cache hit.
				s.points.Put(sk, data)
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		final, data = StateCanceled, nil
	default:
		final, data = StateFailed, nil
	}
	s.settle(j, StateRunning, final, data, err, seconds)
	s.log.Printf("job %s %s tenant=%s experiment=%s points=%d elapsed=%.3fs",
		j.ID, final, j.tenant, j.Req.Experiment, points, seconds)
}

// runExperiment is the default job runner: it resolves the experiment
// and drives the engine with the job's context and a progress hook.
func (s *Server) runExperiment(ctx context.Context, j *Job) ([]byte, int, error) {
	e, ok := experiment.Get(j.Req.Experiment)
	if !ok {
		return nil, 0, fmt.Errorf("experiment %q disappeared from the registry", j.Req.Experiment)
	}
	sc := j.Req.scale()
	sc.Workers = s.cfg.PointWorkers
	sc.Progress = func(done, total int) { j.setProgress(done, total) }
	sc.PointStore = s.points
	sc.Remote = s.cfg.Remote
	sc.ComputeLimit = s.cfg.ComputeLimit
	if j.Req.adaptive() {
		// Stream each simulator cell as it lands: the job compares it
		// against its analytic prediction and batches cells events.
		sc.OnPoint = func(ms []experiment.Measurement) {
			for _, d := range j.noteRefined(ms) {
				s.met.observeRefined(d.AbsErr)
			}
		}
	}
	sc = sc.WithContext(ctx)

	// An inline job runs the plan it probed. Any other job sweeps
	// afresh: RunGrid for experiments that take grids, the grid sweeps
	// among them planning through the same driver; Run for the rest.
	var rep *experiment.Report
	if plan := j.takePlan(); plan != nil {
		rep = plan.Run(sc)
	} else if e.RunGrid != nil {
		rep = e.RunGrid(j.Req.Seed, sc, j.Req.grids())
	} else {
		rep = e.Run(j.Req.Seed, sc)
	}
	if rep.Err != nil {
		return nil, len(rep.Points), rep.Err
	}
	data, err := encodeReport(rep)
	if err != nil {
		return nil, len(rep.Points), err
	}
	if j.Req.adaptive() {
		// Flush the refined-cell buffer and publish the measured error
		// bounds before runOne appends the terminal state event.
		j.finishRefinement()
	}
	return data, len(rep.Points), nil
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// Points returns the server's result store (nil when result reuse is
// disabled). A worker-mode daemon hands it to the cluster compute
// handler so shard requests share the serving path's stored points.
func (s *Server) Points() *pointstore.Store { return s.points }

// PointCounters returns the result store's event counters (zero
// values when result reuse is disabled), for metrics and benchmarks
// that need to know how much simulation a request actually cost.
func (s *Server) PointCounters() pointstore.Counters {
	if s.points == nil {
		return pointstore.Counters{}
	}
	return s.points.Counters()
}

// retryAfterSeconds estimates how long a rejected client should wait:
// the queue needs to drain one slot, which takes about one mean job
// duration per busy worker.
func (s *Server) retryAfterSeconds() int {
	mean := s.met.meanJobSeconds()
	if mean <= 0 {
		return 1
	}
	est := int(mean*float64(s.QueueDepth()+1)/float64(s.cfg.Workers)) + 1
	if est < 1 {
		est = 1
	}
	if est > 120 {
		est = 120
	}
	return est
}

// ---- HTTP layer ----

// Handler returns the daemon's HTTP handler (with request logging).
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so the SSE endpoint still sees
// an http.Flusher through the request-log wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Printf("http %s %s status=%d bytes=%d elapsed=%.1fms",
			r.Method, r.URL.Path, sw.status, sw.bytes,
			float64(time.Since(start).Microseconds())/1000)
	})
}

// writeJSON answers with v as compact JSON. It marshals before writing
// anything, so a value that cannot be encoded answers 500 rather than a
// 200 with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	writeBody(w, status, body)
}

// writeStatus answers with a job status, its report bytes verbatim.
func writeStatus(w http.ResponseWriter, status int, st Status) {
	body, err := encodeStatus(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding job status: %w", err))
		return
	}
	writeBody(w, status, body)
}

// writeBody sends a complete JSON body, with its length, and a newline
// after it for terminal users.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		ID          string `json:"id"`
		Title       string `json:"title"`
		Description string `json:"description"`
		Grids       bool   `json:"grids"` // accepts F/R/L overrides
	}
	var out []expInfo
	for _, e := range experiment.All() {
		out = append(out, expInfo{e.ID, e.Title, e.Description, e.RunGrid != nil})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// maxBodyBytes bounds a submission's request body (1 MiB).
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	req.Tenant = r.Header.Get("X-RR-Tenant")
	j, status, err := s.Submit(req)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, err)
		return
	}
	writeStatus(w, status, j.Status(false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	withResult := r.URL.Query().Get("result") != "false"
	writeStatus(w, http.StatusOK, j.Status(withResult))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeStatus(w, http.StatusOK, j.Status(false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := gauges{
		queueDepth: s.QueueDepth(),
		queueCap:   s.cfg.QueueCap,
		tenants:    s.queue.tenantsSnapshot(),
	}
	if s.points != nil {
		g.pointStore = true
		g.points = s.points.Counters()
		g.pointEntries = s.points.Len()
		g.pointDisk = s.points.DiskLen()
		g.pointBytes = s.points.Bytes()
		g.pointShards = s.points.Shards()
		g.pointSpillPending = s.points.SpillPending()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.met.writeProm(&b, g)
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(&b)
	}
	w.Write([]byte(b.String()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := s.started && !s.draining
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	if s.cfg.ReadyCheck != nil {
		if err := s.cfg.ReadyCheck(); err != nil {
			// Not ready for traffic (e.g. a coordinator short of its
			// worker quorum): tell load balancers to look elsewhere.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "%v\n", err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}
