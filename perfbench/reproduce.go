package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// reproduce runs every registered experiment at full scale, one after
// another, as `rrsim -experiment all -scale full` does: the paper's
// evaluation, bound by the simulator, with no serving or caching layer
// in the path. One round is one pass over the registry.
type reproduce struct {
	cfg    config
	golden map[string][]byte // docs/data/<id>.csv, produced at seed 1
}

// pointsWithoutGolden is the report size, at any seed, of experiments
// that have no CSV under docs/data.
var pointsWithoutGolden = map[string]int{"fidelity-error": 108, "context-sizing": 16}

func setupReproduce(cfg config) (runner, error) {
	// Point keys embed the engine version, which hashes the executable
	// on unstamped or modified builds; pay that here, not in the first
	// timed experiment.
	pointstore.EngineVersion()
	w := &reproduce{cfg: cfg, golden: map[string][]byte{}}
	for _, id := range experiment.IDs() {
		data, err := os.ReadFile(filepath.Join(cfg.root, "docs", "data", id+".csv"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		w.golden[id] = data
	}
	if len(w.golden) == 0 {
		return nil, fmt.Errorf("no golden CSVs under %s", filepath.Join(cfg.root, "docs", "data"))
	}
	return w, nil
}

func (w *reproduce) close() {}

func (w *reproduce) phase(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	if tr != nil {
		tr.begin(nil)
	}
	start := time.Now()
	for {
		u := now()
		var ttr, first []float64
		for _, e := range experiment.All() {
			n, firstMS, ok := w.runOne(e, tr)
			// Every row of the report is in hand once its CSV is.
			at := ms(time.Since(u.wall))
			for ; n > 0; n-- {
				ttr = append(ttr, at)
			}
			first = append(first, firstMS)
			p.attempted++
			if ok {
				p.ok++
			}
		}
		r := u.since()
		r.ttr, r.first = ttr, first
		p.rounds = append(p.rounds, r)
		// Start another pass only if it should end within the phase.
		if time.Since(start).Seconds()+r.wall > d.Seconds() {
			break
		}
	}
	p.rssMB = peakRSSMB()
	if tr != nil {
		tr.end(nil)
	}
	return p
}

// runOne runs and renders one experiment and checks its CSV. It
// returns the report's row count (at least 1), the time from the
// experiment's start to its first point (Scale.Progress; the rendered
// CSV for experiments that report no progress), and whether the report
// is correct. A pass's time to result is per report row: from the
// start of the pass to the row's CSV in hand.
func (w *reproduce) runOne(e experiment.Experiment, tr *tracer) (rows int, firstMS float64, ok bool) {
	sc := experiment.Full
	sc.Workers = runtime.NumCPU()
	var once sync.Once
	firstMS = -1
	start := time.Now()
	sc.Progress = func(done, total int) {
		once.Do(func() { firstMS = ms(time.Since(start)) })
	}
	if tr != nil {
		tr.attach(&sc)
	}
	rep := e.Run(w.cfg.seed, sc)
	ran := time.Now()
	csv := experiment.CSV(rep)
	rendered := time.Now()
	if tr != nil {
		tr.experiment(e.ID, ran.Sub(start), rendered.Sub(ran))
	}
	once.Do(func() { firstMS = ms(rendered.Sub(start)) })
	rows = len(rep.Points)
	if rows == 0 {
		rows = 1
	}
	if err := w.check(rep, []byte(csv)); err != nil {
		fmt.Fprintf(w.cfg.log, "perfbench: reproduce %s: %v\n", e.ID, err)
		return rows, firstMS, false
	}
	return rows, firstMS, true
}

// check accepts a complete report: no interruption, and either the
// golden CSV's exact bytes (seed 1) or its exact cells — the
// experiment, panel, arch, F, R and L columns of every row — with
// measured values free to differ (other seeds).
func (w *reproduce) check(rep *experiment.Report, csv []byte) error {
	if rep.Err != nil {
		return fmt.Errorf("incomplete report: %v", rep.Err)
	}
	golden, ok := w.golden[rep.ID]
	if !ok {
		want, known := pointsWithoutGolden[rep.ID]
		if len(rep.Points) == 0 || known && len(rep.Points) != want {
			return fmt.Errorf("%d points, want %d", len(rep.Points), want)
		}
		return nil
	}
	if w.cfg.seed == 1 {
		if !bytes.Equal(csv, golden) {
			return fmt.Errorf("CSV differs from docs/data/%s.csv", rep.ID)
		}
		return nil
	}
	got, want := cellColumns(csv), cellColumns(golden)
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, docs/data has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is cell %q, docs/data has %q", i, got[i], want[i])
		}
	}
	return nil
}

// cellColumns returns, per CSV line, its first six fields: the cell's
// coordinates, which do not depend on the seed.
func cellColumns(csv []byte) []string {
	var out []string
	for _, line := range bytes.Split(bytes.TrimRight(csv, "\n"), []byte("\n")) {
		fields := bytes.SplitN(line, []byte(","), 7)
		if len(fields) > 6 {
			fields = fields[:6]
		}
		out = append(out, string(bytes.Join(fields, []byte(","))))
	}
	return out
}
