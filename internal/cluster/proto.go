package cluster

// The shard compute protocol: a coordinator POSTs a computeRequest to
// a worker's /v1/cluster/compute, the worker runs the cells through
// its local engine + point store (Experiment.ComputeCells) and
// responds with a computeResponse. Payload bytes are the engine's
// pointcodec encoding, base64 wrapped by encoding/json ([]byte).
//
// Each result carries the key the *worker* derived for the cell, which
// folds in the worker's engine version. A coordinator on a different
// build sees its requested keys go unanswered — counted as
// rrserve_cluster_key_mismatches_total and computed locally — instead
// of silently mixing bytes produced under different semantics. Rolling
// upgrades therefore degrade throughput, never correctness.

// ComputePath is the worker compute endpoint.
const ComputePath = "/v1/cluster/compute"

// wireCell is one requested cell: the coordinator's content address
// plus the grid coordinates the worker needs to rebuild the point.
type wireCell struct {
	Key  string `json:"key"`
	F    int    `json:"f"`
	R    int    `json:"r"`
	L    int    `json:"l"`
	Arch string `json:"arch"`
}

// computeRequest is one batch of cells from a single sweep. The scale
// fields are exactly the result-shaping ones that enter point keys;
// execution knobs (worker pool size, the ComputeLimit hook) stay
// per-process. Fidelity names the measurement tier ("" means sim, the
// pre-tier wire format): a worker computing the wrong tier would
// derive foreign point keys, so the coordinator would drop — never mix
// — its results; carrying the tier makes the fleet useful, the key
// derivation keeps it correct.
type computeRequest struct {
	Experiment string     `json:"experiment"`
	Seed       uint64     `json:"seed"`
	Fidelity   string     `json:"fidelity,omitempty"`
	Threads    int        `json:"threads"`
	WorkRuns   int64      `json:"work_runs"`
	MinWork    int64      `json:"min_work"`
	Cells      []wireCell `json:"cells"`
}

// wireResult is one computed cell.
type wireResult struct {
	Key  string `json:"key"`
	Data []byte `json:"data"`
}

// computeResponse answers a computeRequest.
type computeResponse struct {
	Results []wireResult `json:"results"`
}
