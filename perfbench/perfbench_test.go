package main

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"regreloc/internal/experiment"
)

func TestRequestStreamsFollowTheSeed(t *testing.T) {
	warm := func(seed uint64) []warmReq { return newWarmGen(seed).round(300) }
	if !reflect.DeepEqual(warm(5), warm(5)) {
		t.Error("serve-warm: one seed gave two request streams")
	}
	if reflect.DeepEqual(warm(5), warm(6)) {
		t.Error("serve-warm: seeds 5 and 6 gave the same request stream")
	}
	cold := func(seed uint64) []coldReq { return newColdGen(seed).schedule(coldRound, 2*time.Second) }
	if !reflect.DeepEqual(cold(5), cold(5)) {
		t.Error("serve-cold: one seed gave two schedules")
	}
	if reflect.DeepEqual(cold(5), cold(6)) {
		t.Error("serve-cold: seeds 5 and 6 gave the same schedule")
	}
}

func TestWarmSubGridsAreNewKeys(t *testing.T) {
	g := newWarmGen(1)
	seen := map[string]bool{}
	for _, q := range append(g.round(warmRound), g.round(warmRound)...) {
		if q.repeat >= 0 {
			continue
		}
		if seen[q.grid.key()] {
			t.Fatalf("sub-grid %s drawn twice", q.grid.key())
		}
		seen[q.grid.key()] = true
	}
}

// flipDigit changes the first digit after `"eff":` in data, so the
// answer still decodes but one cell's value is wrong.
func flipDigit(t *testing.T, data []byte) []byte {
	t.Helper()
	i := bytes.Index(data, []byte(`"eff":`))
	if i < 0 {
		t.Fatal("answer has no eff field")
	}
	out := append([]byte(nil), data...)
	for j := i + len(`"eff":`); j < len(out); j++ {
		if c := out[j]; c >= '1' && c <= '9' {
			out[j] = '0' + (c-'0')%9 + 1
			return out
		}
	}
	t.Fatal("no digit to flip")
	return nil
}

func TestCorruptedAnswerLowersOkFrac(t *testing.T) {
	r, err := setupWarm(config{seed: 3, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	w := r.(*warm)
	reqs := w.gen.round(40)
	recs := make([]warmRec, len(reqs))
	w.send(reqs, recs)

	clean := &phase{}
	w.tally(clean, &round{}, reqs, recs, nil)
	if clean.ok != clean.attempted {
		t.Fatalf("clean round: %d of %d answers correct", clean.ok, clean.attempted)
	}

	recs[0].result = flipDigit(t, recs[0].result)
	bad := &phase{}
	w.tally(bad, &round{}, reqs, recs, nil)
	if frac := float64(bad.ok) / float64(bad.attempted); frac >= 1 {
		t.Fatalf("ok_frac %v after corrupting one answer", frac)
	}
}

func TestReproduceCheckCatchesAFlippedByte(t *testing.T) {
	golden := []byte("experiment,panel,arch,F,R,L,efficiency\nfigure5,F=64,fixed,64,8,16,0.512345\n")
	rep := &experiment.Report{ID: "figure5"}
	w := &reproduce{cfg: config{seed: 1}, golden: map[string][]byte{"figure5": golden}}
	if err := w.check(rep, golden); err != nil {
		t.Fatalf("golden bytes rejected: %v", err)
	}
	if err := w.check(rep, bytes.Replace(golden, []byte("0.512345"), []byte("0.512346"), 1)); err == nil {
		t.Error("seed 1: a changed byte passed")
	}

	// At other seeds values may differ but cells may not.
	w.cfg.seed = 2
	if err := w.check(rep, bytes.Replace(golden, []byte("0.512345"), []byte("0.498765"), 1)); err != nil {
		t.Errorf("seed 2: a different value was rejected: %v", err)
	}
	if err := w.check(rep, bytes.Replace(golden, []byte(",16,"), []byte(",17,"), 1)); err == nil {
		t.Error("seed 2: a different cell passed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		p      float64
		n      int
		want   float64
		refuse bool
	}{
		{50, 19, 0, true},
		{50, 20, 10, false},
		{90, 99, 0, true},
		{90, 100, 90, false},
		{99, 999, 0, true},
		{99, 1000, 990, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.refuse {
			if err == nil {
				t.Errorf("p%g of %d samples: got %v, want a refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}
