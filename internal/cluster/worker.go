package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// maxCells caps one compute request's cell count; a coordinator's
// batch size is far below it, so hitting the cap means a buggy or
// abusive client, not a big sweep.
const maxCells = 4096

// WorkerConfig configures the worker-side compute handler.
type WorkerConfig struct {
	// Points, if non-nil, memoizes cells across requests, so a worker
	// that owns a shard keeps serving it from cache when overlapping
	// jobs arrive. Placement sends a key to the same worker for as long
	// as the healthy set holds, which is what makes this effective.
	Points *pointstore.Store
	// PointWorkers bounds the per-request simulation pool (0 = one per
	// core).
	PointWorkers int
	// Logf receives operational warnings; nil uses the standard logger.
	Logf func(format string, args ...any)
}

// Worker serves the shard-scoped compute API. It is an http.Handler;
// mount it at ComputePath.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker returns the compute handler for this process.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Worker{cfg: cfg}
}

// ServeHTTP handles POST ComputePath. Errors are deliberately coarse:
// the coordinator treats any non-200 as a failed batch and retries
// elsewhere, so precision buys nothing — but 4xx vs 5xx still
// distinguishes "your request is wrong" from "I am broken".
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req computeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := validateCompute(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, ok := experiment.Get(req.Experiment)
	if !ok || e.ComputeCells == nil {
		http.Error(w, fmt.Sprintf("unknown or non-shardable experiment %q", req.Experiment), http.StatusBadRequest)
		return
	}

	// An unknown tier is a version-skewed or malformed request, not a
	// reason to guess: refusing keeps "wrong tier" a visible 4xx
	// instead of a silent key mismatch.
	fid, err := experiment.ParseFidelity(req.Fidelity)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	cells := make([]experiment.Cell, len(req.Cells))
	for i, c := range req.Cells {
		cells[i] = experiment.Cell{F: c.F, R: c.R, L: c.L, Arch: c.Arch}
	}
	scale := experiment.Scale{
		Fidelity:   fid,
		Threads:    req.Threads,
		WorkRuns:   req.WorkRuns,
		MinWork:    req.MinWork,
		Workers:    wk.cfg.PointWorkers,
		PointStore: wk.cfg.Points,
	}.WithContext(r.Context())

	results, err := e.ComputeCells(req.Seed, scale, cells)
	if err != nil {
		if r.Context().Err() != nil {
			// Coordinator hung up (hedge won elsewhere, job cancelled):
			// nothing to say and no one listening.
			return
		}
		wk.cfg.Logf("cluster worker: compute %s (%d cells): %v", req.Experiment, len(cells), err)
		http.Error(w, "compute failed: "+err.Error(), http.StatusInternalServerError)
		return
	}

	resp := computeResponse{Results: make([]wireResult, len(results))}
	for i, cr := range results {
		resp.Results[i] = wireResult{Key: cr.Key, Data: cr.Data}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		// Response already partially written; the coordinator sees a
		// truncated body, fails the batch, and retries elsewhere.
		wk.cfg.Logf("cluster worker: encoding response: %v", err)
	}
}

// validateCompute bounds a request before committing simulation work.
// Threads and work are capped at Full, the largest scale serve builds,
// so no request can cost more per cell than a full-scale sweep.
func validateCompute(req *computeRequest) error {
	switch {
	case req.Experiment == "":
		return fmt.Errorf("missing experiment")
	case len(req.Cells) == 0:
		return fmt.Errorf("no cells")
	case len(req.Cells) > maxCells:
		return fmt.Errorf("too many cells: %d > %d", len(req.Cells), maxCells)
	case req.Threads <= 0 || req.Threads > experiment.Full.Threads:
		return fmt.Errorf("threads %d out of range 1..%d", req.Threads, experiment.Full.Threads)
	case req.WorkRuns < 0 || req.MinWork < 0:
		return fmt.Errorf("negative work")
	case req.WorkRuns > experiment.Full.WorkRuns || req.MinWork > experiment.Full.MinWork:
		return fmt.Errorf("work %d/%d exceeds full scale (%d/%d)",
			req.WorkRuns, req.MinWork, experiment.Full.WorkRuns, experiment.Full.MinWork)
	}
	for _, c := range req.Cells {
		// The grid bounds serve applies to submitted grids.
		if c.Arch == "" || c.Key == "" || c.F < 1 || c.F > experiment.MaxF ||
			c.R < 1 || c.R > experiment.MaxR || c.L < 1 || c.L > experiment.MaxL {
			return fmt.Errorf("malformed cell %+v", c)
		}
	}
	return nil
}
