package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

func postCompute(t *testing.T, wk *Worker, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	wk.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, ComputePath, bytes.NewReader(raw)))
	return rr
}

func validRequest() computeRequest {
	return computeRequest{
		Experiment: "figure5",
		Seed:       1,
		Threads:    32,
		WorkRuns:   100,
		MinWork:    2000,
		Cells:      []wireCell{{Key: "k1", F: 64, R: 8, L: 16, Arch: "fixed"}},
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	wk := NewWorker(WorkerConfig{Logf: t.Logf})

	rr := httptest.NewRecorder()
	wk.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, ComputePath, nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: code = %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	wk.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, ComputePath, strings.NewReader("{not json")))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: code = %d", rr.Code)
	}

	cases := map[string]func(*computeRequest){
		"no experiment":      func(r *computeRequest) { r.Experiment = "" },
		"unknown experiment": func(r *computeRequest) { r.Experiment = "no-such-exp" },
		"non-shardable":      func(r *computeRequest) { r.Experiment = "figure3" },
		"no cells":           func(r *computeRequest) { r.Cells = nil },
		"too many cells": func(r *computeRequest) {
			r.Cells = make([]wireCell, maxCells+1)
			for i := range r.Cells {
				r.Cells[i] = wireCell{Key: fmt.Sprint(i), F: 1, R: 1, L: 1, Arch: "fixed"}
			}
		},
		"zero threads":   func(r *computeRequest) { r.Threads = 0 },
		"huge Threads":   func(r *computeRequest) { r.Threads = experiment.Full.Threads + 1 },
		"negative work":  func(r *computeRequest) { r.WorkRuns = -1 },
		"malformed cell": func(r *computeRequest) { r.Cells[0].F = 0 },
		"keyless cell":   func(r *computeRequest) { r.Cells[0].Key = "" },
		"archless cell":  func(r *computeRequest) { r.Cells[0].Arch = "" },
		// The bounds serve puts on submitted grids and scales.
		"huge F":        func(r *computeRequest) { r.Cells[0].F = 1 << 30 },
		"F over cap":    func(r *computeRequest) { r.Cells[0].F = experiment.MaxF + 1 },
		"R over cap":    func(r *computeRequest) { r.Cells[0].R = experiment.MaxR + 1 },
		"L over cap":    func(r *computeRequest) { r.Cells[0].L = experiment.MaxL + 1 },
		"huge WorkRuns": func(r *computeRequest) { r.WorkRuns = experiment.Full.WorkRuns + 1 },
		"huge MinWork":  func(r *computeRequest) { r.MinWork = experiment.Full.MinWork + 1 },
	}
	for name, mutate := range cases {
		req := validRequest()
		mutate(&req)
		if rr := postCompute(t, wk, req); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, rr.Code)
		}
	}
}

func TestWorkerComputesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation cell")
	}
	wk := NewWorker(WorkerConfig{PointWorkers: 2, Logf: t.Logf})
	rr := postCompute(t, wk, validRequest())
	if rr.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rr.Code, rr.Body.String())
	}
	var resp computeResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Key == "" || len(r.Data) == 0 {
		t.Fatalf("empty result: key=%q data=%d bytes", r.Key, len(r.Data))
	}
	// The worker derives the key itself — it must be a real content
	// address, not an echo of the client's placeholder.
	if r.Key == "k1" {
		t.Fatal("worker echoed the requested key instead of deriving it")
	}

	// Same cell again: byte-identical (the whole cluster design rests
	// on this).
	rr2 := postCompute(t, wk, validRequest())
	if !bytes.Equal(rr.Body.Bytes(), rr2.Body.Bytes()) {
		t.Fatal("identical requests produced different bytes")
	}
}

// TestWorkerServesWarmCellsFromStoreBatch pins the worker's warm
// path: with a point store attached, a repeated request is answered
// from the plan's batched store probe — one hit per cell, zero fresh
// simulations (misses) — and the bytes are identical to the cold run.
// Placement routes the same keys to the same worker precisely to make
// this path hot.
func TestWorkerServesWarmCellsFromStoreBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulation cells")
	}
	store, err := pointstore.New(8<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wk := NewWorker(WorkerConfig{Points: store, PointWorkers: 2, Logf: t.Logf})

	req := validRequest()
	req.Cells = []wireCell{
		{Key: "k1", F: 32, R: 8, L: 16, Arch: "fixed"},
		{Key: "k2", F: 64, R: 8, L: 16, Arch: "fixed"},
		{Key: "k3", F: 64, R: 8, L: 16, Arch: "flexible"},
	}
	cold := postCompute(t, wk, req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: code = %d: %s", cold.Code, cold.Body.String())
	}
	c := store.Counters()
	if c.Misses != int64(len(req.Cells)) {
		t.Fatalf("cold misses = %d, want %d", c.Misses, len(req.Cells))
	}
	hitsAfterCold := c.Hits

	warm := postCompute(t, wk, req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: code = %d: %s", warm.Code, warm.Body.String())
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warm response differs from cold response")
	}
	c = store.Counters()
	if c.Misses != int64(len(req.Cells)) {
		t.Fatalf("warm run simulated: misses = %d, want still %d", c.Misses, len(req.Cells))
	}
	if got := c.Hits - hitsAfterCold; got != int64(len(req.Cells)) {
		t.Fatalf("warm hits = %d, want %d (one batched hit per cell)", got, len(req.Cells))
	}
}
