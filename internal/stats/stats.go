// Package stats provides the measurement machinery for the register
// relocation experiments: streaming moments, cycle accounting broken
// down by activity, and transient-exclusion windows matching the
// paper's methodology ("statistics were extracted over a substantial
// fraction of the execution that avoided transient startup and
// completion effects", Section 3.1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Streaming accumulates count, mean, and variance online using
// Welford's algorithm. The zero value is ready to use.
type Streaming struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Streaming) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Streaming) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Streaming) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Streaming) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Streaming) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Streaming) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Streaming) Max() float64 { return s.max }

// CI95 returns the half-width of a ~95% confidence interval for the
// mean, using the normal approximation (the experiments draw tens of
// thousands of samples, where this is accurate).
func (s *Streaming) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// Histogram accumulates observations into fixed buckets defined by
// strictly increasing upper bounds, with an implicit +Inf bucket last.
// It backs the serving layer's latency metrics (Prometheus-style
// cumulative buckets) but is a plain data structure: callers that
// observe from multiple goroutines must synchronize. The zero value is
// not useful; construct with NewHistogram.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	sum    float64
	n      int64
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. It panics on empty or non-increasing bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one observation into the first bucket whose upper
// bound is >= x (Prometheus "le" semantics).
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.sum += x
	h.n++
}

// N returns the observation count and Sum their total.
func (h *Histogram) N() int64     { return h.n }
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Cumulative returns, for each bound plus the +Inf bucket, the count of
// observations <= that bound — the Prometheus histogram_bucket series.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var acc int64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by
// linear interpolation within the owning bucket, treating the lowest
// bucket as spanning [0, bounds[0]] and clamping the +Inf bucket to its
// lower bound. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var acc int64
	for i, c := range h.counts {
		if float64(acc+c) >= rank && c > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(acc)) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		acc += c
	}
	return h.bounds[len(h.bounds)-1]
}

// String renders a compact text summary: count, mean, and p50/p95/p99.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "histogram(empty)"
	}
	return fmt.Sprintf("histogram(n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g)",
		h.n, h.sum/float64(h.n), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
}

// Activity labels every way the simulated processor can spend a cycle.
// Efficiency (processor utilization) is Useful / Total.
type Activity int

// The activities tracked by the node simulator. Their costs come from
// the paper's Figure 4 table.
const (
	Useful  Activity = iota // executing thread instructions
	Switch                  // software context switch (S cycles)
	Idle                    // no runnable resident context
	Alloc                   // context allocation (25/15 cycles)
	Dealloc                 // context deallocation (5 cycles)
	Load                    // loading a context's registers (C + 10)
	Unload                  // unloading a context's registers (C + 10)
	Queue                   // thread queue insert/remove (10 cycles)
	Spin                    // two-phase polling of a blocked context
	numActivities
)

var activityNames = [...]string{"useful", "switch", "idle", "alloc", "dealloc", "load", "unload", "queue", "spin"}

// String returns the activity's lowercase name.
func (a Activity) String() string {
	if a < 0 || int(a) >= len(activityNames) {
		return fmt.Sprintf("activity(%d)", int(a))
	}
	return activityNames[a]
}

// Activities returns all defined activities in order.
func Activities() []Activity {
	out := make([]Activity, numActivities)
	for i := range out {
		out[i] = Activity(i)
	}
	return out
}

// CycleAccount tallies simulated cycles by activity.
type CycleAccount struct {
	cycles [numActivities]int64
}

// Charge adds n cycles of the given activity. Negative charges panic:
// cycle time only moves forward.
func (c *CycleAccount) Charge(a Activity, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("stats: negative charge %d for %v", n, a))
	}
	c.cycles[a] += n
}

// Get returns the cycles charged to activity a.
func (c *CycleAccount) Get(a Activity) int64 { return c.cycles[a] }

// Total returns the sum over all activities.
func (c *CycleAccount) Total() int64 {
	var t int64
	for _, v := range c.cycles {
		t += v
	}
	return t
}

// Efficiency returns Useful / Total, the paper's processor-utilization
// metric. With no cycles recorded it returns 0.
func (c *CycleAccount) Efficiency() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.cycles[Useful]) / float64(t)
}

// Overhead returns the fraction of cycles that are neither useful nor
// idle — pure multithreading overhead.
func (c *CycleAccount) Overhead() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	var oh int64
	for a, v := range c.cycles {
		if Activity(a) != Useful && Activity(a) != Idle {
			oh += v
		}
	}
	return float64(oh) / float64(t)
}

// Sub returns the account c minus other, activity by activity. It is
// used to extract a measurement window: snapshot at window start,
// subtract from the snapshot at window end.
func (c *CycleAccount) Sub(other *CycleAccount) *CycleAccount {
	var out CycleAccount
	for i := range c.cycles {
		d := c.cycles[i] - other.cycles[i]
		if d < 0 {
			panic(fmt.Sprintf("stats: window underflow for %v", Activity(i)))
		}
		out.cycles[i] = d
	}
	return &out
}

// Clone returns a copy of the account.
func (c *CycleAccount) Clone() *CycleAccount {
	out := *c
	return &out
}

// Breakdown returns a human-readable per-activity fraction summary,
// omitting zero rows, sorted by descending share.
func (c *CycleAccount) Breakdown() string {
	t := c.Total()
	if t == 0 {
		return "(no cycles)"
	}
	type row struct {
		a Activity
		v int64
	}
	rows := make([]row, 0, numActivities)
	for i, v := range c.cycles {
		if v > 0 {
			rows = append(rows, row{Activity(i), v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	s := ""
	for i, r := range rows {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.1f%%", r.a, 100*float64(r.v)/float64(t))
	}
	return s
}

// Window extracts steady-state measurements by discarding a leading and
// trailing fraction of the run, as the paper does to avoid startup and
// completion transients. Drive it with a progress measure whose final
// value is known in advance — the node simulator uses useful cycles
// against the population's total work, which (unlike total cycles) is
// fixed before the run starts: call MaybeSnapshot as the run
// progresses, then Measure at the end.
type Window struct {
	// SkipHead and SkipTail are the fractions of progress excluded at
	// the start and end (paper excludes both transients).
	SkipHead, SkipTail float64

	start     *CycleAccount
	end       *CycleAccount
	headTaken bool
	tailTaken bool
}

// NewWindow returns a window excluding the given head and tail
// fractions. Typical use is NewWindow(0.1, 0.1).
func NewWindow(skipHead, skipTail float64) *Window {
	if skipHead < 0 || skipTail < 0 || skipHead+skipTail >= 1 {
		panic("stats: invalid window fractions")
	}
	return &Window{SkipHead: skipHead, SkipTail: skipTail}
}

// MaybeSnapshot records the start-of-window snapshot once the run has
// passed the head-skip point, and the end-of-window snapshot once it
// reaches the tail-skip point. now is the progress so far and
// expectedTotal its final value: the node simulator passes the useful
// cycles executed so far against the total work of its thread
// population.
func (w *Window) MaybeSnapshot(acct *CycleAccount, now, expectedTotal int64) {
	if !w.headTaken && float64(now) >= w.SkipHead*float64(expectedTotal) {
		w.start = acct.Clone()
		w.headTaken = true
	}
	if !w.tailTaken && float64(now) >= (1-w.SkipTail)*float64(expectedTotal) {
		w.end = acct.Clone()
		w.tailTaken = true
	}
}

// Done reports whether both snapshots have been taken, i.e. further
// MaybeSnapshot calls are no-ops. The simulator checks it to keep the
// per-charge bookkeeping branch-predictable once the window has
// closed.
func (w *Window) Done() bool { return w.headTaken && w.tailTaken }

// Measure returns the windowed account. With no head snapshot (a very
// short run) the whole run is returned; with no tail snapshot the
// window extends to the final account.
func (w *Window) Measure(final *CycleAccount) *CycleAccount {
	end := final
	if w.tailTaken {
		end = w.end
	}
	if !w.headTaken || w.start == nil {
		return end.Clone()
	}
	return end.Sub(w.start)
}
