package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"regreloc/internal/experiment"
)

// echoWorker is a fake worker: its compute endpoint records the keys it
// is asked for and answers each with placeholder bytes, or fails while
// failing is set. Its /readyz always answers.
type echoWorker struct {
	ts      *httptest.Server
	failing atomic.Bool
	mu      sync.Mutex
	keys    []string
}

func newEchoWorker(t *testing.T) *echoWorker {
	t.Helper()
	w := &echoWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Write([]byte("ready\n"))
	})
	mux.HandleFunc(ComputePath, func(rw http.ResponseWriter, r *http.Request) {
		var req computeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		for _, c := range req.Cells {
			w.keys = append(w.keys, c.Key)
		}
		w.mu.Unlock()
		if w.failing.Load() {
			http.Error(rw, "compute broken", http.StatusInternalServerError)
			return
		}
		var resp computeResponse
		for _, c := range req.Cells {
			resp.Results = append(resp.Results, wireResult{Key: c.Key, Data: []byte{1}})
		}
		json.NewEncoder(rw).Encode(&resp)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// asked reports how many times the worker was asked for key.
func (w *echoWorker) asked(key string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, k := range w.keys {
		if k == key {
			n++
		}
	}
	return n
}

// sweepOf is a sweep of the given keys; echo workers ignore the rest.
func sweepOf(keys ...string) experiment.RemoteSweep {
	s := experiment.RemoteSweep{Experiment: "figure5"}
	for _, k := range keys {
		s.Points = append(s.Points, experiment.RemotePoint{Key: k})
	}
	return s
}

// keysOwnedBy returns the first n keys of the form "key-i" that url
// owns among ms.
func keysOwnedBy(url string, ms []member, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); owners(k, ms, 1)[0] == url {
			out = append(out, k)
		}
	}
	return out
}

// TestRetryGoesToNewOwner pins where a retry lands once the batch's
// owner has been ejected: on the top-ranked survivor, which now owns
// the keys, not on the next one down.
func TestRetryGoesToNewOwner(t *testing.T) {
	a, b, c := newEchoWorker(t), newEchoWorker(t), newEchoWorker(t)
	a.failing.Store(true)
	cl, err := New(Config{Workers: []string{a.ts.URL, b.ts.URL, c.ts.URL}, HedgeAfter: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cl.ProbeNow()
	key := keysOwnedBy(a.ts.URL, cl.healthyNow(), 1)[0]
	survivors := owners(key, members(b.ts.URL, c.ts.URL), 2)
	byURL := map[string]*echoWorker{b.ts.URL: b, c.ts.URL: c}

	// With one failure already on record, the batch's own failure
	// ejects a before the retry is placed.
	cl.noteResult(a.ts.URL, errors.New("earlier failure"), "compute")
	var got []string
	if err := cl.ComputePoints(context.Background(), sweepOf(key), func(k string, _ []byte) { got = append(got, k) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != key {
		t.Fatalf("emitted %v, want [%s]", got, key)
	}
	if n := cl.HealthyCount(); n != 2 {
		t.Fatalf("healthy = %d, want 2: the owner was not ejected", n)
	}
	if n := a.asked(key); n != 1 {
		t.Fatalf("ejected owner asked %d times, want 1", n)
	}
	if n := byURL[survivors[0]].asked(key); n != 1 {
		t.Fatalf("survivors' rank 0 asked %d times, want 1", n)
	}
	if n := byURL[survivors[1]].asked(key); n != 0 {
		t.Fatalf("survivors' rank 1 asked %d times, want 0", n)
	}
}

// TestComputeEjectionBacksOff drives a worker whose /readyz answers
// while its compute endpoint fails through 16 probe rounds, each after
// a sweep that places keys on it whenever it is up. The n-th
// consecutive compute ejection waits for 2^(n-1) successful probes, so
// it is admitted 5 times (rounds 0, 2, 6 and 14, after the first
// admission) where one probe used to re-admit it every round. Once its
// compute works again, it rejoins and a successful compute resets the
// count: the next ejection needs one probe.
func TestComputeEjectionBacksOff(t *testing.T) {
	bad, good := newEchoWorker(t), newEchoWorker(t)
	bad.failing.Store(true)
	var admits atomic.Int64
	cl, err := New(Config{
		Workers:    []string{bad.ts.URL, good.ts.URL},
		BatchSize:  1,
		Retries:    1,
		HedgeAfter: -1,
		Logf: func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if strings.Contains(msg, bad.ts.URL+" admitted") {
				admits.Add(1)
			}
			t.Log(msg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.ProbeNow()
	ms := cl.healthyNow()
	sweep := sweepOf(slices.Concat(keysOwnedBy(bad.ts.URL, ms, 4), keysOwnedBy(good.ts.URL, ms, 4))...)
	run := func() {
		t.Helper()
		if err := cl.ComputePoints(context.Background(), sweep, func(string, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 16; round++ {
		run()
		cl.ProbeNow()
	}
	if n := admits.Load(); n > 5 {
		t.Fatalf("always-failing worker admitted %d times over 16 probe rounds, want at most 5", n)
	}

	bad.failing.Store(false)
	probes := 0
	for cl.HealthyCount() < 2 {
		if probes++; probes > maxAdmitProbes {
			t.Fatalf("recovered worker not admitted after %d probes", maxAdmitProbes)
		}
		cl.ProbeNow()
	}
	run() // a successful compute resets the ejection count

	bad.failing.Store(true)
	run()
	if n := cl.HealthyCount(); n != 1 {
		t.Fatalf("healthy = %d after the failing sweep, want 1", n)
	}
	cl.ProbeNow()
	if n := cl.HealthyCount(); n != 2 {
		t.Fatal("one probe did not re-admit a worker whose last compute succeeded before this ejection")
	}
}
