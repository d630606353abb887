// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed time, checks every answer the program gives,
// and prints the workload's metrics; the last line of standard output
// is a JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --root . --workload serve-warm --seed 3 --seconds 25 --trace 0
//
// --workload all runs the three workloads one after another.
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd), and the
// latency figures (latencies) are printed beside them without a bound;
// with --trace 1 the run measures an untraced phase and then a traced
// one, and prints the per-layer metrics (perLayer), the traced phase's
// latency figures, and each figure's traced-minus-untraced difference.
// See README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what every workload is built from.
type config struct {
	root    string // repository root (docs/data lives under it)
	seed    uint64
	seconds int
	trace   bool
	log     io.Writer // diagnostics (standard error)
}

// runner is a workload that has finished its set-up.
type runner interface {
	// phase runs the timed phase for d; tr is nil for an untraced phase.
	phase(d time.Duration, tr *tracer) *phase
	close()
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(cfg config) (runner, error){
	"reproduce":  setupReproduce,
	"serve-warm": setupWarm,
	"serve-cold": setupCold,
}

// setupRuns is how many fresh processes time the set-up. Each pays
// every one-off cost (binary hash, connection set-up, warm fill), and
// their median is setup_s.
const setupRuns = 3

// readyLine is what a --setup-only process prints once set up.
const readyLine = "perfbench: ready"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root      = fs.String("root", ".", "repository root")
		name      = fs.String("workload", "", "reproduce, serve-warm, serve-cold, or all")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Int("seconds", 25, "length of the timed phase")
		trace     = fs.Int("trace", 0, "1 = add a traced phase and print per-layer metrics")
		setupOnly = fs.Bool("setup-only", false, "set up, print a ready line and exit (used to time set-up)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok && *name != "all" || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload reproduce|serve-warm|serve-cold|all, --seconds >= 1, --trace 0|1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	cfg := config{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}

	if *setupOnly {
		r, err := setup(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		fmt.Fprintln(stdout, readyLine)
		r.close()
		return 0
	}

	steal0 := stealSeconds()
	res, err := measure(cfg, setup, args)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	hostLine(stdout, cfg, stealSeconds()-steal0)
	for _, m := range res.order {
		fmt.Fprintf(stdout, "%-36s %14.6f %s\n", m.name, m.Value, m.Unit)
	}
	for _, m := range res.extra {
		fmt.Fprintf(stdout, "%-36s %14.6f %s (no bound)\n", m.name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"reproduce", "serve-warm", "serve-cold"}

// runAll runs every workload, each in a process of its own so none
// inherits another's heap or peak RSS, and fails if any fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloadOrder {
		fmt.Fprintf(stdout, "== %s\n", w)
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			status = 1
		}
	}
	return status
}

// measure times the set-up in fresh processes, sets up this process,
// runs the timed phase (and the traced one), and assembles the result.
func measure(cfg config, setup func(config) (runner, error), args []string) (*result, error) {
	setups, err := timeSetups(args)
	if err != nil {
		return nil, err
	}
	r, err := setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	d := time.Duration(cfg.seconds) * time.Second
	plain := r.phase(d, nil)
	e2e, lat, err := plain.figures(median(setups))
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.attempted - plain.ok}
	if !cfg.trace {
		res.set(e2e)
		res.extra = lat
		res.Correct = res.Failed == 0
		return res, nil
	}
	tr := newTracer(cfg.log)
	traced := r.phase(d, tr)
	te2e, tlat, err := traced.figures(median(setups))
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.attempted - traced.ok
	res.Correct = res.Failed == 0
	res.set(tr.layers(traced, append(e2e, lat...), append(te2e, tlat...)))
	return res, nil
}

// timeSetups runs the set-up in setupRuns fresh copies of this program,
// one after another, and returns the seconds each took from start to
// its ready line.
func timeSetups(args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := append(append([]string(nil), args...), "--setup-only")
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, child...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var took time.Duration
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if sc.Text() == readyLine && took == 0 {
				took = time.Since(start)
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if took == 0 {
			return nil, errors.New("set-up process exited without its ready line")
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// hostLine prints where the numbers were measured: cpu model, core
// count, GOMAXPROCS, Go version, seed, the build's VCS stamp, and the
// CPU time a hypervisor took from this machine during the run (steal),
// which inflates every wall-clock figure of a run it hits.
func hostLine(w io.Writer, cfg config, steal float64) {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	host := map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"vcs_revision": rev,
		"vcs_modified": modified,
		"steal_s":      steal,
	}
	b, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Fprintf(w, "host %s\n", b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the machine's cumulative steal time from
// /proc/stat (0 where it is not reported).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"-"`
	order     []metric
	extra     []metric // printed without a bound, not in the JSON
}

type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(ms []metric) {
	r.order = ms
	r.Metrics = make(map[string]metric, len(ms))
	for _, m := range ms {
		r.Metrics[m.name] = m
	}
}

func (r *result) MarshalJSON() ([]byte, error) {
	type plain result
	return json.Marshal(struct {
		*plain
		Metrics map[string]metric `json:"metrics"`
	}{(*plain)(r), r.Metrics})
}
