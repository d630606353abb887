// Command rrload load-tests an rrserved daemon: N concurrent clients
// submit sweep jobs whose grids overlap by a configurable fraction
// (exercising the point store and single-flight coalescing the way
// production traffic would), at a target arrival rate or in a closed
// loop, for a fixed duration. It reports p50/p95/p99 submit latency,
// time-to-result, aggregate points/s, and the HTTP status mix — as a
// human summary and, with -out, as a JSON snapshot in the same
// array-of-snapshots format scripts/bench_json.sh writes, so load runs
// land in the same trajectory files as the Go benchmarks.
//
// Usage:
//
//	rrload -addr 127.0.0.1:8347 -clients 500 -overlap 0.5 -duration 30s
//	rrload -clients 100 -rate 200 -tenants 4 -label pr6-load -out BENCH_PR6.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// submitRecord is one client submission's outcome.
type submitRecord struct {
	submitNS int64 // POST round-trip
	ttrNS    int64 // submit → terminal state; -1 when not waited or not terminal
	status   int
	points   int // sweep cells the job addressed (from its plan)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8347", "rrserved address (host:port, or full http:// URL)")
		clients  = fs.Int("clients", 50, "concurrent client goroutines")
		duration = fs.Duration("duration", 30*time.Second, "how long to keep submitting")
		rate     = fs.Float64("rate", 0, "target aggregate submissions/s across all clients (0 = closed loop)")
		overlap  = fs.Float64("overlap", 0.5, "fraction of submissions drawn from a small shared grid pool (the rest are unique)")
		expID    = fs.String("experiment", "figure5", "experiment ID to submit")
		scale    = fs.String("scale", "quick", "sweep scale (quick or full)")
		fidelity = fs.String("fidelity", "", "measurement tier on every submission: sim, machine, analytic, or adaptive (empty = server default)")
		seed     = fs.Uint64("seed", 1, "base sweep seed")
		tenants  = fs.Int("tenants", 1, "distinct X-RR-Tenant identities cycled across clients")
		wait     = fs.Bool("wait", true, "poll each accepted job to a terminal state (time-to-result)")
		label    = fs.String("label", "rrload", "snapshot label for -out")
		out      = fs.String("out", "", "append a bench_json-style JSON snapshot to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *clients < 1 || *duration <= 0 || *overlap < 0 || *overlap > 1 || *tenants < 1 {
		fmt.Fprintln(stderr, "rrload: need -clients >= 1, -duration > 0, -overlap in [0,1], -tenants >= 1")
		return 2
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	client := &http.Client{Timeout: 2 * time.Minute}
	if _, err := getJSON(client, base+"/readyz", nil); err != nil {
		fmt.Fprintf(stderr, "rrload: daemon not reachable at %s: %v\n", base, err)
		return 1
	}

	// Optional open-loop pacing: a token bucket filled at -rate.
	var tokens chan struct{}
	stopPacer := make(chan struct{})
	if *rate > 0 {
		tokens = make(chan struct{}, *clients)
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default: // clients are saturated; drop the token
					}
				case <-stopPacer:
					return
				}
			}
		}()
	}

	gen := workload{expID: *expID, scale: *scale, fidelity: *fidelity, seed: *seed, overlap: *overlap}
	deadline := time.Now().Add(*duration)
	records := make([][]submitRecord, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			tenant := fmt.Sprintf("tenant%d", c%*tenants)
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				rec := submitOne(client, base, gen.next(rng, c), tenant, *wait, deadline)
				records[c] = append(records[c], rec)
			}
		}(c)
	}
	wg.Wait()
	close(stopPacer)
	elapsed := time.Since(start)

	var all []submitRecord
	for _, rs := range records {
		all = append(all, rs...)
	}
	if len(all) == 0 {
		fmt.Fprintln(stderr, "rrload: no submissions completed")
		return 1
	}
	sum := summarize(all, elapsed, *clients, *overlap)
	fmt.Fprint(stdout, sum.human())
	if *out != "" {
		if err := appendSnapshot(*out, *label, sum); err != nil {
			fmt.Fprintf(stderr, "rrload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "rrload: appended snapshot %q to %s\n", *label, *out)
	}
	return 0
}

// workload generates the request mix: a small pool of canonical grids
// that `overlap` of submissions repeat (hitting stored reports, stored
// points, and single-flight coalescing), and unique grids for the
// rest (forcing cold simulation). Pool grids share F/R axes so even
// distinct pool entries overlap at the point level.
type workload struct {
	expID    string
	scale    string
	fidelity string
	seed     uint64
	overlap  float64
	uniq     atomic.Uint64
}

// wireRequest mirrors serve.Request's wire format; rrload speaks only
// HTTP so the serve package is not imported.
type wireRequest struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale,omitempty"`
	Fidelity   string `json:"fidelity,omitempty"`
	F          []int  `json:"f,omitempty"`
	R          []int  `json:"r,omitempty"`
	L          []int  `json:"l,omitempty"`
}

var poolGrids = [8]struct{ f, r, l []int }{
	{[]int{32, 64}, []int{8}, []int{16}},
	{[]int{32, 64}, []int{16}, []int{16}},
	{[]int{64, 128}, []int{8}, []int{16}},
	{[]int{64, 128}, []int{16}, []int{16}},
	{[]int{32, 64, 128}, []int{8}, []int{16}},
	{[]int{32, 64, 128}, []int{16}, []int{16}},
	{[]int{32, 64}, []int{8, 16}, []int{16}},
	{[]int{64, 128}, []int{8, 16}, []int{16}},
}

func (w *workload) next(rng *rand.Rand, client int) wireRequest {
	req := wireRequest{Experiment: w.expID, Seed: w.seed, Scale: w.scale, Fidelity: w.fidelity}
	if rng.Float64() < w.overlap {
		g := poolGrids[rng.Intn(len(poolGrids))]
		req.F, req.R, req.L = g.f, g.r, g.l
		return req
	}
	// Unique: a never-repeated seed makes the cache key (and every
	// point key) cold.
	req.Seed = w.seed + 1000 + w.uniq.Add(1)
	g := poolGrids[client%len(poolGrids)]
	req.F, req.R, req.L = g.f, g.r, g.l
	return req
}

// submitOne POSTs a job and (optionally) polls it to a terminal state.
func submitOne(client *http.Client, base string, req wireRequest, tenant string, wait bool, deadline time.Time) submitRecord {
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return submitRecord{status: -1, ttrNS: -1}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-RR-Tenant", tenant)
	t0 := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return submitRecord{status: -1, ttrNS: -1}
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Plan  *struct {
			Points int `json:"points"`
		} `json:"plan"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec := submitRecord{submitNS: int64(time.Since(t0)), status: resp.StatusCode, ttrNS: -1}
	if decErr != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) {
		return rec
	}
	if st.Plan != nil {
		rec.points = st.Plan.Points
	}
	if !wait {
		return rec
	}
	// Poll to a terminal state; grant a grace window past the load
	// deadline so accepted jobs still report their time-to-result.
	grace := deadline.Add(time.Minute)
	for {
		if terminalState(st.State) {
			rec.ttrNS = int64(time.Since(t0))
			return rec
		}
		if time.Now().After(grace) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := getJSON(client, base+"/v1/jobs/"+st.ID, &st); err != nil {
			return rec
		}
	}
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "canceled"
}

func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// summary is the aggregated run outcome.
type summary struct {
	clients   int
	overlap   float64
	elapsed   time.Duration
	submits   int
	accepted  int
	statuses  map[int]int
	submitP   [3]time.Duration // p50, p95, p99
	meanNS    float64          // mean submit latency
	ttrP      [3]time.Duration
	ttrCount  int
	points    int64
	jobsPerS  float64
	pointPerS float64
}

func summarize(all []submitRecord, elapsed time.Duration, clients int, overlap float64) summary {
	s := summary{clients: clients, overlap: overlap, elapsed: elapsed,
		submits: len(all), statuses: make(map[int]int)}
	var submitNS, ttrNS []int64
	for _, r := range all {
		s.statuses[r.status]++
		if r.status == http.StatusOK || r.status == http.StatusCreated {
			s.accepted++
		}
		submitNS = append(submitNS, r.submitNS)
		if r.ttrNS >= 0 {
			ttrNS = append(ttrNS, r.ttrNS)
			s.points += int64(r.points)
		}
	}
	var totalNS int64
	for _, ns := range submitNS {
		totalNS += ns
	}
	s.meanNS = float64(totalNS) / float64(len(submitNS))
	s.submitP = percentiles(submitNS)
	s.ttrP = percentiles(ttrNS)
	s.ttrCount = len(ttrNS)
	secs := elapsed.Seconds()
	if secs > 0 {
		s.jobsPerS = float64(s.accepted) / secs
		s.pointPerS = float64(s.points) / secs
	}
	return s
}

// percentiles returns p50/p95/p99 of ns samples (zeros when empty).
func percentiles(ns []int64) [3]time.Duration {
	var out [3]time.Duration
	if len(ns) == 0 {
		return out
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(ns)-1))
		return time.Duration(ns[i])
	}
	return [3]time.Duration{pick(0.50), pick(0.95), pick(0.99)}
}

func (s summary) human() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rrload: %d clients, %.0f%% overlap, %.1fs\n",
		s.clients, s.overlap*100, s.elapsed.Seconds())
	fmt.Fprintf(&b, "  submits   %d (%.1f accepted/s)\n", s.submits, s.jobsPerS)
	var codes []int
	for c := range s.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		name := "transport-error"
		if c > 0 {
			name = fmt.Sprintf("HTTP %d", c)
		}
		fmt.Fprintf(&b, "  %-16s %d\n", name, s.statuses[c])
	}
	fmt.Fprintf(&b, "  submit latency  p50 %v  p95 %v  p99 %v\n", s.submitP[0], s.submitP[1], s.submitP[2])
	if s.ttrCount > 0 {
		fmt.Fprintf(&b, "  time-to-result  p50 %v  p95 %v  p99 %v  (%d jobs)\n", s.ttrP[0], s.ttrP[1], s.ttrP[2], s.ttrCount)
		fmt.Fprintf(&b, "  throughput      %.0f points/s\n", s.pointPerS)
	}
	return b.String()
}

// snapshot mirrors the array-of-snapshots layout scripts/bench_json.sh
// maintains, so rrload runs append into the same trajectory files.
type snapshot struct {
	Label      string      `json:"label"`
	Goos       string      `json:"goos"`
	Goarch     string      `json:"goarch"`
	CPU        string      `json:"cpu"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

func appendSnapshot(path, label string, s summary) error {
	metrics := map[string]float64{
		"submit_p50_ms": float64(s.submitP[0]) / 1e6,
		"submit_p95_ms": float64(s.submitP[1]) / 1e6,
		"submit_p99_ms": float64(s.submitP[2]) / 1e6,
		"jobs/s":        s.jobsPerS,
		"points/s":      s.pointPerS,
		"clients":       float64(s.clients),
		"overlap":       s.overlap,
	}
	if s.ttrCount > 0 {
		metrics["ttr_p50_ms"] = float64(s.ttrP[0]) / 1e6
		metrics["ttr_p95_ms"] = float64(s.ttrP[1]) / 1e6
		metrics["ttr_p99_ms"] = float64(s.ttrP[2]) / 1e6
	}
	for code, n := range s.statuses {
		name := "status_err"
		if code > 0 {
			name = fmt.Sprintf("status_%d", code)
		}
		metrics[name] = float64(n)
	}
	snap := snapshot{
		Label: label, Goos: runtime.GOOS, Goarch: runtime.GOARCH, CPU: cpuModel(),
		Benchmarks: []benchmark{{
			Name:       "ServeLoad",
			Iterations: s.submits,
			// ns_per_op is the mean submit latency, the closest analogue
			// of a Go benchmark's per-op cost.
			NsPerOp: s.meanNS,
			Metrics: metrics,
		}},
	}

	var snaps []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &snaps); err != nil {
			return fmt.Errorf("%s exists but is not a snapshot array: %w", path, err)
		}
	}
	enc, err := json.MarshalIndent(snap, "  ", " ")
	if err != nil {
		return err
	}
	snaps = append(snaps, enc)
	var out bytes.Buffer
	out.WriteString("[\n")
	for i, r := range snaps {
		out.WriteString("  ")
		out.Write(bytes.TrimSpace(r))
		if i < len(snaps)-1 {
			out.WriteString(",")
		}
		out.WriteString("\n")
	}
	out.WriteString("]\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// cpuModel best-effort reads the CPU model name for snapshot metadata,
// matching the "cpu:" line Go benchmarks print.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
