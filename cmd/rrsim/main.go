// Command rrsim regenerates the paper's tables and figures.
//
// Usage:
//
//	rrsim -list
//	rrsim -experiment figure5 [-seed 1] [-scale full] [-format table]
//	rrsim -experiment figure6 -format plot -panel F=128
//	rrsim -experiment all -format summary
//	rrsim -experiment figure5 -parallel 4   # bound the sweep worker pool
//	rrsim -experiment figure5 -pointcache ~/.cache/rrsim  # reuse sweep points across runs
//	rrsim -experiment figure5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	rrsim -experiment figure5 -mutexprofile mutex.pprof -blockprofile block.pprof
//
// Formats: table (default), plot (requires -panel or plots every
// panel), csv, summary.
//
// Sweep points run concurrently on one worker per core by default;
// -parallel bounds the pool (1 forces sequential execution). Results
// are identical at every setting: each point's RNG stream is derived
// from the seed and the point's coordinates, not from execution order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeLookupProfile dumps a named runtime profile (mutex, block) to
// path; failures are reported, not fatal — the run's real output
// already happened.
func writeLookupProfile(stderr io.Writer, name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "rrsim: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(stderr, "rrsim: writing %s profile: %v\n", name, err)
	}
}

// run implements the tool; it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the reproducible experiments")
		expID    = fs.String("experiment", "", "experiment to run (or \"all\")")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		scale    = fs.String("scale", "full", "quick or full")
		format   = fs.String("format", "table", "table, plot, csv, or summary")
		panel    = fs.String("panel", "", "panel for -format plot (e.g. F=128); empty plots all")
		outDir   = fs.String("o", "", "also write <experiment>.csv files into this directory")
		parallel = fs.Int("parallel", 0, "sweep-point workers: 0 = one per core, 1 = sequential")
		fidelity = fs.String("fidelity", "sim", "measurement tier: sim, machine, or analytic (grid experiments only for non-sim)")
		ptCache  = fs.String("pointcache", "", "directory memoizing per-point results across runs (incremental sweeps)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mtxProf  = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blkProf  = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "rrsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rrsim: starting CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "rrsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rrsim: writing heap profile: %v\n", err)
			}
		}()
	}
	// Lock-contention profiles: collection is off by default in the
	// runtime (it costs a few percent), so it is enabled only for the
	// lifetime of a profiled run. See docs/performance.md, "Diagnosing
	// lock contention".
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookupProfile(stderr, "mutex", *mtxProf)
	}
	if *blkProf != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookupProfile(stderr, "block", *blkProf)
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
			fmt.Fprintf(stdout, "%-18s   %s\n", "", e.Description)
		}
		return 0
	}
	if *expID == "" {
		fs.Usage()
		return 2
	}

	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.Quick
	case "full":
		sc = experiment.Full
	default:
		fmt.Fprintf(stderr, "rrsim: unknown scale %q\n", *scale)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "rrsim: -parallel must be >= 0, got %d\n", *parallel)
		return 2
	}
	sc.Workers = *parallel
	fid, err := experiment.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(stderr, "rrsim: %v\n", err)
		return 2
	}
	sc.Fidelity = fid

	// Every run memoizes sweep points in memory, so one invocation
	// computes each point key once: fidelity-error's simulated half is
	// figure5's grid. -pointcache adds a disk tier, so rerunning after an
	// interrupted or partially overlapping sweep only simulates the
	// cells that changed. Sound because a point's bytes are a pure
	// function of its content address (engine version included).
	store, err := pointstore.New(64<<20, *ptCache)
	if err != nil {
		fmt.Fprintf(stderr, "rrsim: %v\n", err)
		return 1
	}
	sc.PointStore = store
	if *ptCache == "" {
		defer store.Close()
	} else {
		defer func() {
			if err := store.SaveIndex(); err != nil {
				fmt.Fprintf(stderr, "rrsim: saving point cache index: %v\n", err)
			}
			c := store.Counters()
			fmt.Fprintf(stderr, "rrsim: point cache: %d hits, %d misses (%d entries in memory, %d on disk)\n",
				c.Hits, c.Misses, store.Len(), store.DiskLen())
			store.Close() // release the cache dir's advisory lock
		}()
	}

	var exps []experiment.Experiment
	if *expID == "all" {
		exps = experiment.All()
	} else {
		e, ok := experiment.Get(*expID)
		if !ok {
			fmt.Fprintf(stderr, "rrsim: unknown experiment %q; use -list\n", *expID)
			return 2
		}
		exps = []experiment.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "rrsim: creating output directory: %v\n", err)
			return 1
		}
	}

	for _, e := range exps {
		// Non-sim tiers flow through the grid sweep engine; experiments
		// that build their own measurement closures would silently
		// ignore the tier, so refuse (or skip, under -experiment all)
		// rather than mislabel simulator output.
		if fid != experiment.FidelitySim && e.RunGrid == nil {
			if *expID == "all" {
				fmt.Fprintf(stderr, "rrsim: %s: skipped (fidelity %s requires a grid sweep)\n", e.ID, fid)
				continue
			}
			fmt.Fprintf(stderr, "rrsim: %s is not a grid sweep; fidelity %s requires one\n", e.ID, fid)
			return 2
		}
		// Live progress (throttled) plus a wall-time summary per
		// experiment, both on stderr so piped output stays clean. The
		// hook rides on the per-run Scale, so concurrent runs (none
		// today) could not interleave their updates.
		start := time.Now()
		lastUpdate := start
		runScale := sc
		runScale.Progress = func(done, total int) {
			if time.Since(lastUpdate) < time.Second || done == total {
				return
			}
			lastUpdate = time.Now()
			fmt.Fprintf(stderr, "rrsim: %s: %d/%d points (%.1f points/s)\n",
				e.ID, done, total, float64(done)/time.Since(start).Seconds())
		}
		report := e.Run(*seed, runScale)
		if report.Err != nil {
			fmt.Fprintf(stderr, "rrsim: %s: interrupted: %v\n", e.ID, report.Err)
			return 1
		}
		if secs := time.Since(start).Seconds(); len(report.Points) > 0 && secs > 0 {
			fmt.Fprintf(stderr, "rrsim: %s: %d points in %.2fs (%.1f points/s)\n",
				e.ID, len(report.Points), secs, float64(len(report.Points))/secs)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, report.ID+".csv")
			if err := os.WriteFile(path, []byte(experiment.CSV(report)), 0o644); err != nil {
				fmt.Fprintf(stderr, "rrsim: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		switch *format {
		case "table":
			fmt.Fprint(stdout, experiment.Table(report))
			if s := experiment.Summary(report); s != "" {
				fmt.Fprintf(stdout, "\nsummary:\n%s", s)
			}
		case "plot":
			panels := report.Panels()
			if *panel != "" {
				panels = []string{*panel}
			}
			for _, p := range panels {
				fmt.Fprintln(stdout, experiment.Plot(report, p))
			}
		case "csv":
			fmt.Fprint(stdout, experiment.CSV(report))
		case "summary":
			fmt.Fprintf(stdout, "== %s ==\n%s", report.Title, experiment.Summary(report))
			for _, n := range report.Notes {
				fmt.Fprintf(stdout, "   %s\n", n)
			}
		default:
			fmt.Fprintf(stderr, "rrsim: unknown format %q\n", *format)
			return 2
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
