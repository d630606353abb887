package main

import (
	"fmt"
	"syscall"
	"time"
)

// phase is what one timed phase of a workload observed. A phase is
// made of rounds — a fixed batch of work, repeated until the phase's
// time is up — and every end-to-end figure is the median over rounds
// of that round's figure, so one slow stretch of a run moves it less,
// and a faster program that fits more rounds in still compares like
// with like.
type phase struct {
	rounds    []round
	attempted int
	ok        int
	rssMB     float64 // peak RSS of the process at the end of the phase
}

// round is one round's wall and CPU seconds and its latency samples
// (milliseconds): time to result and time to first answer, one per
// operation.
type round struct {
	wall, cpu  float64
	ttr, first []float64
}

// usage is a wall-clock and process-CPU reading.
type usage struct {
	wall time.Time
	cpu  float64 // user+sys seconds of the whole process
}

func now() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{wall: time.Now(), cpu: tvSeconds(ru.Utime) + tvSeconds(ru.Stime)}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// since is a round whose wall and CPU time run from u to now.
func (u usage) since() round {
	n := now()
	return round{wall: n.wall.Sub(u.wall).Seconds(), cpu: n.cpu - u.cpu}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd lists the end-to-end metrics that carry a bound, in print
// order: the JSON's metrics on an untraced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"ok_frac", "ratio"},
	{"rss_peak_mb", "MB"},
}

// latencies lists the end-to-end latency figures, in print order. Every
// run prints them, but they carry no bound and stay out of an untraced
// run's JSON. On the shared host the benchmark was defined on,
// hypervisor steal moved them by 30-50% between runs of the same code
// (serve-cold most), far past any bound a regression check could use.
// A traced run reports them as per-layer metrics.
var latencies = []struct{ name, unit string }{
	{"ttr_p50_ms", "ms"},
	{"ttr_p90_ms", "ms"},
	{"ttr_p99_ms", "ms"},
	{"first_answer_p50_ms", "ms"},
}

// figures computes the phase's end-to-end metrics (setup is the median
// set-up time measured beforehand) and its latency figures. ttr_p99_ms
// is left out when the phase is too small to hold it.
func (p *phase) figures(setup float64) (bounded, lat []metric, err error) {
	if len(p.rounds) == 0 || p.attempted == 0 {
		return nil, nil, fmt.Errorf("phase completed no rounds")
	}
	var walls, cpus, all []float64
	for _, r := range p.rounds {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		all = append(all, r.ttr...)
	}
	vals := map[string]float64{
		"setup_s":     setup,
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"ok_frac":     float64(p.ok) / float64(p.attempted),
		"rss_peak_mb": p.rssMB,
	}
	for _, m := range endToEnd {
		bounded = append(bounded, metric{name: m.name, Value: vals[m.name], Unit: m.unit})
	}
	for _, q := range []struct {
		name    string
		samples func(round) []float64
		p       float64
	}{
		{"ttr_p50_ms", func(r round) []float64 { return r.ttr }, 50},
		{"ttr_p90_ms", func(r round) []float64 { return r.ttr }, 90},
		{"first_answer_p50_ms", func(r round) []float64 { return r.first }, 50},
	} {
		v, err := p.roundPercentile(q.samples, q.p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.name, err)
		}
		vals[q.name] = v
	}
	// A round is too small to hold a p99, so it is pooled over the phase.
	p99, p99err := percentile(all, 99)
	vals["ttr_p99_ms"] = p99
	for _, m := range latencies {
		if m.name == "ttr_p99_ms" && p99err != nil {
			continue
		}
		lat = append(lat, metric{name: m.name, Value: vals[m.name], Unit: m.unit})
	}
	return bounded, lat, nil
}

// roundPercentile is the median over rounds of each round's p-th
// percentile of samples. When failures leave some round too few
// samples to hold it, the rounds' samples are pooled instead.
func (p *phase) roundPercentile(samples func(round) []float64, pct float64) (float64, error) {
	var per, all []float64
	for _, r := range p.rounds {
		xs := samples(r)
		all = append(all, xs...)
		if v, err := percentile(xs, pct); err == nil {
			per = append(per, v)
		}
	}
	if len(per) == len(p.rounds) {
		return median(per), nil
	}
	return percentile(all, pct)
}
