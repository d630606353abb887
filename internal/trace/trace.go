// Package trace records what a simulated multithreaded processor node
// did cycle by cycle — which thread ran, switched, loaded, unloaded,
// spun, or idled — and renders the record as an ASCII timeline. It is
// the observability companion to internal/node: the Figures 5/6
// efficiency numbers summarize exactly these timelines.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"regreloc/internal/stats"
)

// Event is one contiguous span of processor activity.
type Event struct {
	// At is the starting cycle; Dur the span length.
	At, Dur int64
	// Thread is the thread ID, or -1 for anonymous activity (idle,
	// allocation attempts on behalf of the queue).
	Thread int
	// Activity classifies the span.
	Activity stats.Activity
}

// Recorder accumulates events. A zero Recorder discards nothing; use
// Limit to cap memory for long simulations. A nil *Recorder is valid
// and records nothing, so callers can pass it unconditionally.
type Recorder struct {
	events  []Event
	limit   int
	dropped int
}

// New returns a recorder keeping at most limit events (0 = unlimited).
func New(limit int) *Recorder { return &Recorder{limit: limit} }

// Record appends an event. On a nil recorder it is a no-op; on a full
// recorder the event is counted as dropped so capped traces are
// visibly incomplete (see the Timeline truncation marker).
func (r *Recorder) Record(at, dur int64, thread int, a stats.Activity) {
	if r == nil || dur <= 0 {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{At: at, Dur: dur, Thread: thread, Activity: a})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// activityGlyphs maps activities to timeline characters.
var activityGlyphs = map[stats.Activity]byte{
	stats.Useful:  '#',
	stats.Switch:  's',
	stats.Idle:    '.',
	stats.Alloc:   'a',
	stats.Dealloc: 'd',
	stats.Load:    'L',
	stats.Unload:  'U',
	stats.Queue:   'q',
	stats.Spin:    '~',
}

// Glyph returns the timeline character for an activity.
func Glyph(a stats.Activity) byte {
	if g, ok := activityGlyphs[a]; ok {
		return g
	}
	return '?'
}

// Timeline renders the window [from, to) as one row per thread plus a
// "cpu" row of anonymous activity, width characters wide. Each cell
// shows the dominant activity of its cycle bucket.
func (r *Recorder) Timeline(from, to int64, width int) string {
	if r == nil || to <= from || width <= 0 {
		return "(no trace)\n"
	}
	// Collect thread IDs in the window.
	threadSet := map[int]bool{}
	for _, e := range r.events {
		if e.At < to && e.At+e.Dur > from {
			threadSet[e.Thread] = true
		}
	}
	ids := make([]int, 0, len(threadSet))
	for id := range threadSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	rows := make(map[int][]byte, len(ids))
	weight := make(map[int][]int64, len(ids))
	for _, id := range ids {
		rows[id] = []byte(strings.Repeat(" ", width))
		weight[id] = make([]int64, width)
	}
	span := to - from
	for _, e := range r.events {
		if e.At >= to || e.At+e.Dur <= from {
			continue
		}
		start, end := e.At, e.At+e.Dur
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		c0 := int((start - from) * int64(width) / span)
		c1 := int((end - from - 1) * int64(width) / span)
		for c := c0; c <= c1 && c < width; c++ {
			// Dominant activity per cell: keep the glyph of the longest
			// overlapping event seen so far.
			if e.Dur > weight[e.Thread][c] {
				weight[e.Thread][c] = e.Dur
				rows[e.Thread][c] = Glyph(e.Activity)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d (%d per column)\n", from, to, span/int64(width))
	for _, id := range ids {
		label := fmt.Sprintf("t%-3d", id)
		if id < 0 {
			label = "cpu "
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, rows[id])
	}
	b.WriteString("legend: #=useful s=switch .=idle a=alloc d=dealloc L=load U=unload q=queue ~=spin\n")
	if r.dropped > 0 {
		fmt.Fprintf(&b, "WARNING: trace truncated — %d events dropped after the %d-event limit\n",
			r.dropped, r.limit)
	}
	return b.String()
}

// Summary tallies recorded cycles per activity, as a cross-check
// against the node's CycleAccount.
func (r *Recorder) Summary() map[stats.Activity]int64 {
	out := make(map[stats.Activity]int64)
	if r == nil {
		return out
	}
	for _, e := range r.events {
		out[e.Activity] += e.Dur
	}
	return out
}
