package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/serve"
)

// serve-cold is the new-sweep path under open-loop load: seeded Poisson
// arrivals at a fixed rate, each a sweep no earlier request asked for,
// from four classes whose service times are of the same order:
//
//   - sim: a fresh-seed simulator grid;
//   - overlap: a grid sharing half its cells with a recent sim grid
//     (partial plan coverage, and single-flight joins while the earlier
//     job still runs);
//   - adaptive: fidelity=adaptive, whose POST carries the analytic
//     answer and whose job refines it on the simulator;
//   - machine: fidelity=machine, kernel assembly plus the
//     instruction-level machine per cell.
//
// One sender POSTs on schedule and one fetcher GETs each result once
// Server.Job(id).Done() closes, so no connection is held per waiting
// job. The submit path competes with the simulations for the cores.

// coldRate is the arrival rate, requests per second: about half of
// what this mix sustains on the 2-core host the benchmark was defined
// on. It is fixed, not derived from measured capacity, so a faster
// program shows as lower latency instead of as more load.
const coldRate = 50

// refEvery sets how many answers are recomputed outside the server as
// a reference: every refEvery-th request of each class.
const refEvery = 8

const (
	classSim = iota
	classOverlap
	classAdaptive
	classMachine
	numClasses
)

var classNames = [numClasses]string{"sim", "overlap", "adaptive", "machine"}

// Each class draws its grid's values from a fixed set, so what a
// request costs depends on its class and not on the seed: the seed
// picks the experiment, F, the order of the values and the simulation
// seed. A 16-cell sim grid costs about as much CPU as a 6-cell machine
// grid.
var (
	coldF    = []int{64, 128, 256}
	simR     = []int{32, 128}
	simL     = []int{64, 128, 256, 512}
	machineR = []int{32}
	machineL = []int{64, 128, 256}
)

// coldReq is one scheduled request.
type coldReq struct {
	at       time.Duration // due time from the phase start
	class    int
	grid     grid
	fidelity string
	base     int // overlap: index of the sim request it shares cells with
}

func (q coldReq) request() serve.Request {
	r := q.grid.request()
	r.Fidelity = q.fidelity
	return r
}

// coldGen draws the cold schedule from the seed.
type coldGen struct{ rng *rand.Rand }

func newColdGen(seed uint64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(int64(seed) ^ 0x5eed))}
}

// schedule draws n arrivals over d: a Poisson process conditioned on n
// arrivals (sorted uniform times), with the classes in equal shares in
// seeded order.
func (g *coldGen) schedule(n int, d time.Duration) []coldReq {
	at := make([]float64, n)
	for i := range at {
		at[i] = g.rng.Float64() * float64(d)
	}
	sort.Float64s(at)
	classes := make([]int, n)
	for i := range classes {
		classes[i] = i % numClasses
	}
	g.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]coldReq, n)
	var sims []int
	for i := range out {
		q := coldReq{at: time.Duration(at[i]), class: classes[i], base: -1}
		switch q.class {
		case classSim:
			q.grid = g.simGrid()
			sims = append(sims, i)
		case classOverlap:
			if len(sims) == 0 {
				q.class, q.grid = classSim, g.simGrid()
				sims = append(sims, i)
				break
			}
			lo := len(sims) - 4
			if lo < 0 {
				lo = 0
			}
			q.base = sims[lo+g.rng.Intn(len(sims)-lo)]
			q.grid = g.overlapGrid(out[q.base].grid)
		case classAdaptive:
			q.grid, q.fidelity = g.simGrid(), "adaptive"
		case classMachine:
			q.grid, q.fidelity = g.machineGrid(), "machine"
		}
		out[i] = q
	}
	return out
}

// simGrid is a fresh-seed 16-cell grid: one F, two R, four L, two
// architectures.
func (g *coldGen) simGrid() grid {
	return grid{exp: poolExps[g.rng.Intn(2)], seed: g.rng.Uint64() >> 1,
		f: pick(g.rng, coldF, 1), r: shuffled(g.rng, simR), l: shuffled(g.rng, simL)}
}

// overlapGrid keeps base's F and R, two of its four L values, and adds
// those two scaled by 3/2, which base lacks: half its cells are base's.
func (g *coldGen) overlapGrid(base grid) grid {
	l := pick(g.rng, base.l, 2)
	l = append(l, l[0]*3/2, l[1]*3/2)
	g.rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	return grid{exp: base.exp, seed: base.seed, f: base.f, r: base.r, l: l}
}

// machineGrid is a fresh-seed 6-cell machine grid: one F, one R, three
// L, two architectures.
func (g *coldGen) machineGrid() grid {
	return grid{exp: poolExps[g.rng.Intn(2)], seed: g.rng.Uint64() >> 1,
		f: pick(g.rng, coldF, 1), r: machineR, l: shuffled(g.rng, machineL)}
}

func pick(rng *rand.Rand, xs []int, n int) []int { return shuffled(rng, xs)[:n] }

type cold struct {
	cfg config
	h   *harness
	gen *coldGen
	lim *hookLimiter // non-nil on traced runs
}

func setupCold(cfg config) (runner, error) {
	var sc serve.Config
	var lim *hookLimiter
	if cfg.trace {
		// Installed from the start so both phases of a traced run serve
		// with the same configuration; it records only while traced.
		lim = &hookLimiter{}
		sc.ComputeLimit = lim
	}
	h, err := newHarness(sc)
	if err != nil {
		return nil, err
	}
	w := &cold{cfg: cfg, h: h, gen: newColdGen(cfg.seed), lim: lim}
	if err := w.warmUp(); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

// warmUp sends two requests of each class, on seeds the timed stream
// never draws, so one-off costs — the engine version hash, the analytic
// model's memo, pools, the client connections — are paid in set-up.
func (w *cold) warmUp() error {
	g := newColdGen(^w.cfg.seed)
	for _, q := range g.schedule(2*numClasses, time.Second) {
		code, st, err := w.h.post(q.request())
		if err != nil {
			return err
		}
		if code != http.StatusOK && code != http.StatusCreated {
			return fmt.Errorf("warm-up POST: status %d", code)
		}
		if _, err := w.h.fetch(st.ID); err != nil {
			return err
		}
	}
	return nil
}

func (w *cold) close() { w.h.close() }

// coldRec is what one scheduled request observed.
type coldRec struct {
	due, sent, posted, running, ended time.Time
	fetched, got                      time.Time // GET issued and answered
	code                              int
	id                                string
	partialOK                         bool
	result                            []byte
	err                               error
}

// coldRound is the number of arrivals in one round: a multiple of the
// class count, so every round carries each class in equal shares.
const coldRound = 100

func (w *cold) phase(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	if tr != nil {
		tr.begin(w.h)
		w.lim.on.Store(true)
	}
	span := time.Duration(float64(coldRound) / coldRate * float64(time.Second))
	start := time.Now()
	var scheds [][]coldReq
	var recs [][]coldRec
	for {
		sched := w.gen.schedule(coldRound, span)
		u := now()
		rs := w.round(sched, tr != nil)
		r := u.since()
		p.rounds = append(p.rounds, r)
		scheds, recs = append(scheds, sched), append(recs, rs)
		if time.Since(start).Seconds()+r.wall > d.Seconds() {
			break
		}
	}
	p.rssMB = peakRSSMB()
	if tr != nil {
		w.lim.on.Store(false)
		tr.end(w.h)
	}

	var cells int
	for k, sched := range scheds {
		w.verify(sched, recs[k])
		r := &p.rounds[k]
		for i, q := range sched {
			rec := &recs[k][i]
			cells += len(q.grid.cells())
			p.attempted++
			if rec.err != nil {
				fmt.Fprintf(w.cfg.log, "perfbench: serve-cold round %d request %d (%s): %v\n", k, i, classNames[q.class], rec.err)
			} else {
				p.ok++
				r.ttr = append(r.ttr, ms(rec.got.Sub(rec.due)))
			}
			if q.fidelity == "adaptive" && rec.partialOK {
				r.first = append(r.first, ms(rec.posted.Sub(rec.due)))
			}
			if tr != nil {
				tr.coldRequest(q, rec)
			}
		}
	}
	if tr != nil {
		tr.wasteRatio(w.lim.calls.Swap(0), cells)
	}
	return p
}

// round sends one schedule open loop and returns once every request
// has its result or has failed. One goroutine sends; the calling one
// fetches results in the order jobs finish.
func (w *cold) round(sched []coldReq, traced bool) []coldRec {
	n := len(sched)
	recs := make([]coldRec, n)
	done := make(chan int, n) // every request reports exactly once
	var wg sync.WaitGroup     // the sender and every job waiter
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, q := range sched {
			rec := &recs[i]
			rec.due = t0.Add(q.at)
			// A sub-millisecond sleep overshoots by about a millisecond
			// on Linux, so such gaps are not slept: the request goes at
			// once and its lateness is recorded.
			if wait := time.Until(rec.due); wait >= time.Millisecond {
				time.Sleep(wait)
			}
			rec.sent = time.Now()
			var st serve.Status
			rec.code, st, rec.err = w.h.post(q.request())
			rec.posted = time.Now()
			if rec.err == nil && rec.code != http.StatusOK && rec.code != http.StatusCreated {
				rec.err = fmt.Errorf("POST status %d", rec.code)
			}
			var j *serve.Job
			if rec.err == nil {
				rec.id = st.ID
				rec.partialOK = q.fidelity != "adaptive" || partialComplete(st.Partial, q.grid)
				var ok bool
				if j, ok = w.h.srv.Job(st.ID); !ok {
					rec.err = fmt.Errorf("job %s unknown to the server", st.ID)
				}
			}
			if rec.err != nil {
				done <- i
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if traced {
					recs[i].running, recs[i].ended = watchJob(j)
				} else {
					<-j.Done()
				}
				done <- i
			}(i)
		}
	}()
	for k := 0; k < n; k++ {
		i := <-done
		rec := &recs[i]
		if rec.err != nil {
			continue
		}
		rec.fetched = time.Now()
		st, err := w.h.get(rec.id)
		rec.got = time.Now()
		switch {
		case err != nil:
			rec.err = err
		case st.State != serve.StateDone || len(st.Result) == 0:
			rec.err = fmt.Errorf("job %s ended %s %s", st.ID, st.State, st.Error)
		default:
			rec.result = st.Result
		}
	}
	wg.Wait()
	return recs
}

// watchJob follows a job's event log and returns when it was seen to
// start running and to end.
func watchJob(j *serve.Job) (running, ended time.Time) {
	var after int64
	for {
		evs, wake := j.EventsSince(after)
		for _, ev := range evs {
			after = ev.ID
			if ev.Type != serve.EventState {
				continue
			}
			switch ev.State {
			case serve.StateRunning:
				running = time.Now()
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				return running, time.Now()
			}
		}
		<-wake
	}
}

// partialComplete reports whether an adaptive POST carried the analytic
// answer for every cell of the grid.
func partialComplete(partial []byte, g grid) bool {
	if len(partial) == 0 {
		return false
	}
	a, err := decodeAnswer(partial)
	return err == nil && a.checkShape(g.cells()) == nil
}

// verify checks every answer after the timed phase and marks wrong
// ones failed:
//   - each holds exactly its grid's cells, in order;
//   - an overlap answer's shared cells are byte-identical to its base's;
//   - every refEvery-th answer equals a reference computed directly by
//     the engine, with no server and no store (the simulator for sim,
//     overlap and adaptive requests — adaptive jobs must converge to
//     it — and the machine for machine requests);
//   - re-submitting those requests hits the report cache with the same
//     bytes, and an adaptive one's sim-fidelity twin answers with its
//     bytes too.
func (w *cold) verify(sched []coldReq, recs []coldRec) {
	var nth [numClasses]int
	for i, q := range sched {
		rec := &recs[i]
		k := nth[q.class]
		nth[q.class]++
		if rec.err != nil {
			continue
		}
		a, err := decodeAnswer(rec.result)
		if err == nil {
			err = a.checkShape(q.grid.cells())
		}
		if err == nil && q.class == classOverlap && recs[q.base].err == nil {
			err = sameSharedCells(a, recs[q.base].result)
		}
		if err == nil && !rec.partialOK {
			err = fmt.Errorf("adaptive POST lacked a complete analytic partial")
		}
		if err == nil && k%refEvery == 0 {
			err = w.reference(q, a, rec.result)
		}
		rec.err = err
	}
}

func sameSharedCells(a *answer, base []byte) error {
	b, err := decodeAnswer(base)
	if err != nil {
		return err
	}
	byID := make(map[string][]byte, len(b.cells))
	for i, c := range b.cells {
		byID[c.id()] = b.raw[i]
	}
	for i, c := range a.cells {
		if raw, ok := byID[c.id()]; ok && !bytes.Equal(raw, a.raw[i]) {
			return fmt.Errorf("%w: overlap cell %s", errMismatch, c.id())
		}
	}
	return nil
}

// reference recomputes q with the engine alone and compares it cell by
// cell with the server's answer, then checks the report-cache path.
func (w *cold) reference(q coldReq, a *answer, result []byte) error {
	e, ok := experiment.Get(q.grid.exp)
	if !ok {
		return fmt.Errorf("experiment %s not registered", q.grid.exp)
	}
	sc := replayScale()
	if q.fidelity == "machine" {
		sc.Fidelity = experiment.FidelityMachine
	}
	rep := e.RunGrid(q.grid.seed, sc, experiment.Grids{F: q.grid.f, R: q.grid.r, L: q.grid.l})
	if rep.Err != nil {
		return fmt.Errorf("reference run: %v", rep.Err)
	}
	if len(rep.Points) != len(a.cells) {
		return fmt.Errorf("reference has %d points, answer %d", len(rep.Points), len(a.cells))
	}
	for i, m := range rep.Points {
		if cellOf(m) != a.cells[i] {
			return fmt.Errorf("%w: %s", errMismatch, a.cells[i].id())
		}
	}
	again := []serve.Request{q.request()}
	if q.fidelity == "adaptive" {
		twin := q.request()
		twin.Fidelity = "sim"
		again = append(again, twin)
	}
	for _, req := range again {
		code, st, err := w.h.post(req)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !st.Cached {
			return fmt.Errorf("re-submitting %s fidelity %q: status %d cached=%v", q.grid.key(), req.Fidelity, code, st.Cached)
		}
		got, err := w.h.fetch(st.ID)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, result) {
			return fmt.Errorf("report cache answered %s fidelity %q with different bytes", q.grid.key(), req.Fidelity)
		}
	}
	return nil
}
