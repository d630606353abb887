package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/serve"
)

// serve-warm is the dashboard re-query path. Set-up fills the point
// store with a seeded pool of figure5/figure6 grids; the timed phase
// then sends nproc closed-loop callers through sub-grids of the pool
// (new keys whose every cell is stored: assembled inline) and exact
// repeats of recent requests (report-cache hits). Nothing is simulated
// in the timed phase, so simulator changes must leave it unchanged.

const (
	poolGrids    = 8    // figure5/figure6 grids in the warm pool
	warmRound    = 1200 // requests per round
	repeatEvery  = 3    // every third request repeats a recent one
	repeatWindow = 24   // how far back a repeat may reach, in sub-grids
)

// The published axes of the two pool experiments (figure5 then
// figure6), and the architectures each compares.
var (
	poolAxes = [2][3][]int{
		{{64, 128, 256}, {8, 32, 128}, {16, 32, 64, 128, 256, 512}},
		{{64, 128, 256}, {32, 128, 512}, {64, 128, 256, 512, 1024}},
	}
	poolExps  = [2]string{"figure5", "figure6"}
	gridArchs = []string{"fixed", "flexible"}
)

// grid is one sweep request over explicit axes.
type grid struct {
	exp     string
	seed    uint64
	f, r, l []int
}

func (g grid) request() serve.Request {
	return serve.Request{Experiment: g.exp, Seed: g.seed, F: g.f, R: g.r, L: g.l}
}

func (g grid) key() string { return fmt.Sprintf("%s/%d/%v/%v/%v", g.exp, g.seed, g.f, g.r, g.l) }

func (g grid) cells() []string { return gridCells(g.f, g.r, g.l, gridArchs) }

// warmReq is one request of the warm stream: a sub-grid of pool grid
// pool, or (repeat >= 0) an exact repeat of request repeat of the same
// round.
type warmReq struct {
	pool   int
	grid   grid
	repeat int
}

// warmGen draws the warm request stream from the seed.
type warmGen struct {
	rng  *rand.Rand
	pool []grid
	seen map[string]bool
}

func newWarmGen(seed uint64) *warmGen {
	g := &warmGen{rng: rand.New(rand.NewSource(int64(seed))), seen: map[string]bool{}}
	for i := 0; i < poolGrids; i++ {
		axes := poolAxes[i%2]
		pg := grid{exp: poolExps[i%2], seed: g.rng.Uint64() >> 1,
			f: shuffled(g.rng, axes[0]), r: shuffled(g.rng, axes[1]), l: shuffled(g.rng, axes[2])}
		g.seen[pg.key()] = true
		g.pool = append(g.pool, pg)
	}
	return g
}

// round draws the next n requests. Sub-grid keys never repeat across
// the stream, so only the deliberate repeats can hit the report cache.
func (g *warmGen) round(n int) []warmReq {
	out := make([]warmReq, 0, n)
	var subs []int // indices of this round's sub-grid requests
	for i := 0; i < n; i++ {
		if i%repeatEvery == repeatEvery-1 && len(subs) > 0 {
			lo := len(subs) - repeatWindow
			if lo < 0 {
				lo = 0
			}
			j := subs[lo+g.rng.Intn(len(subs)-lo)]
			out = append(out, warmReq{pool: out[j].pool, grid: out[j].grid, repeat: j})
			continue
		}
		for {
			p := g.rng.Intn(len(g.pool))
			pg := g.pool[p]
			sg := grid{exp: pg.exp, seed: pg.seed,
				f: subset(g.rng, pg.f), r: subset(g.rng, pg.r), l: subset(g.rng, pg.l)}
			if g.seen[sg.key()] {
				continue
			}
			g.seen[sg.key()] = true
			subs = append(subs, len(out))
			out = append(out, warmReq{pool: p, grid: sg, repeat: -1})
			break
		}
	}
	return out
}

func shuffled(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// subset is a random non-empty subset of xs in random order.
func subset(rng *rand.Rand, xs []int) []int {
	s := shuffled(rng, xs)
	return s[:1+rng.Intn(len(s))]
}

type warm struct {
	cfg  config
	h    *harness
	gen  *warmGen
	pool []map[string]json.RawMessage // pool grid → cell id → cold-answer bytes
}

func setupWarm(cfg config) (runner, error) {
	h, err := newHarness(serve.Config{})
	if err != nil {
		return nil, err
	}
	w := &warm{cfg: cfg, h: h, gen: newWarmGen(cfg.seed)}
	if err := w.fill(); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

// fill computes every pool grid cold through the server, from nproc
// goroutines so each client connection is opened here and not in the
// timed phase, and keeps each cold answer's cells as the reference the
// sub-grids are checked against.
func (w *warm) fill() error {
	w.pool = make([]map[string]json.RawMessage, len(w.gen.pool))
	errs := make([]error, len(w.gen.pool))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.gen.pool); i += workers {
				w.pool[i], errs[i] = w.fillOne(w.gen.pool[i])
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if c := w.h.srv.PointCounters(); c.Evictions != 0 {
		return fmt.Errorf("pool does not fit the point store: %d evictions", c.Evictions)
	}
	return nil
}

func (w *warm) fillOne(g grid) (map[string]json.RawMessage, error) {
	code, st, err := w.h.post(g.request())
	if err != nil {
		return nil, err
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("fill POST: status %d", code)
	}
	result, err := w.h.fetch(st.ID)
	if err != nil {
		return nil, err
	}
	a, err := decodeAnswer(result)
	if err != nil {
		return nil, err
	}
	if err := a.checkShape(g.cells()); err != nil {
		return nil, err
	}
	byID := make(map[string]json.RawMessage, len(a.cells))
	for i, c := range a.cells {
		byID[c.id()] = a.raw[i]
	}
	return byID, nil
}

func (w *warm) close() { w.h.close() }

// warmRec is what one request observed.
type warmRec struct {
	postMS, getMS, ttrMS float64
	code                 int
	st                   serve.Status
	result               []byte
	err                  error
}

func (w *warm) phase(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	if tr != nil {
		tr.begin(w.h)
	}
	start := time.Now()
	var traced []warmReq
	for {
		reqs := w.gen.round(warmRound)
		recs := make([]warmRec, len(reqs))
		u := now()
		w.send(reqs, recs)
		r := u.since()
		w.tally(p, &r, reqs, recs, tr)
		p.rounds = append(p.rounds, r)
		if tr != nil {
			traced = append(traced, reqs...)
		}
		if time.Since(start).Seconds()+r.wall > d.Seconds() {
			break
		}
	}
	p.rssMB = peakRSSMB()
	if tr != nil {
		tr.end(w.h)
		tr.replay(w.h, traced)
	}
	return p
}

// send runs the round's requests on nproc closed-loop callers. A
// caller POSTs, waits for the job in process if the POST did not
// answer it outright, then GETs the result.
func (w *warm) send(reqs []warmReq, recs []warmRec) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				recs[i] = w.one(reqs[i].grid.request())
			}
		}()
	}
	wg.Wait()
}

func (w *warm) one(req serve.Request) warmRec {
	var rec warmRec
	t0 := time.Now()
	rec.code, rec.st, rec.err = w.h.post(req)
	t1 := time.Now()
	rec.postMS = ms(t1.Sub(t0))
	if rec.err != nil {
		return rec
	}
	if rec.code != http.StatusOK && rec.code != http.StatusCreated {
		rec.err = fmt.Errorf("POST status %d", rec.code)
		return rec
	}
	if rec.st.State != serve.StateDone {
		if rec.err = w.h.await(rec.st.ID); rec.err != nil {
			return rec
		}
	}
	t2 := time.Now()
	st, err := w.h.get(rec.st.ID)
	t3 := time.Now()
	rec.getMS = ms(t3.Sub(t2))
	rec.ttrMS = ms(t3.Sub(t0))
	switch {
	case err != nil:
		rec.err = err
	case st.State != serve.StateDone || len(st.Result) == 0:
		rec.err = fmt.Errorf("job %s ended %s %s", st.ID, st.State, st.Error)
	default:
		rec.result = st.Result
	}
	return rec
}

// tally checks a round's answers and adds them to the phase and round.
// An answer is correct when it holds the grid's cells in order, each
// byte-identical to that cell in its pool grid's cold answer, and, for
// a repeat, the same bytes as the request it repeats.
func (w *warm) tally(p *phase, r *round, reqs []warmReq, recs []warmRec, tr *tracer) {
	for i := range reqs {
		rec := &recs[i]
		p.attempted++
		if rec.code == http.StatusOK || rec.code == http.StatusCreated {
			r.first = append(r.first, rec.postMS)
		}
		if rec.err == nil {
			var same []byte
			if j := reqs[i].repeat; j >= 0 {
				same = recs[j].result
			}
			rec.err = checkWarmAnswer(rec.result, reqs[i].grid, w.pool[reqs[i].pool], same)
		}
		if rec.err != nil {
			fmt.Fprintf(w.cfg.log, "perfbench: serve-warm request %d: %v\n", i, rec.err)
		} else {
			p.ok++
			r.ttr = append(r.ttr, rec.ttrMS)
		}
		if tr != nil {
			tr.warmRequest(rec)
		}
	}
}

// checkWarmAnswer checks result against the pool grid's cold cells and,
// when same is non-nil, against the bytes of the earlier answer to the
// same request.
func checkWarmAnswer(result []byte, g grid, cold map[string]json.RawMessage, same []byte) error {
	a, err := decodeAnswer(result)
	if err != nil {
		return err
	}
	if err := a.checkShape(g.cells()); err != nil {
		return err
	}
	for i, c := range a.cells {
		if !bytes.Equal(a.raw[i], cold[c.id()]) {
			return fmt.Errorf("%w: %s", errMismatch, c.id())
		}
	}
	if same != nil && !bytes.Equal(result, same) {
		return fmt.Errorf("repeat answered with different bytes")
	}
	return nil
}

// replayScale is the scale a serve request of the default scale runs.
func replayScale() experiment.Scale {
	sc := experiment.Quick
	sc.Fidelity = experiment.FidelitySim
	return sc
}
