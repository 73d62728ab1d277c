package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around a
// public function of the program. Parent is the id of the span that caused
// it (-1 for a root); Trace is the epoch or request index all spans of one
// operation share. A probe is an extra call made only to split a layer's
// time (a standalone REG build, a second forward): it is attributed to its
// layer but excluded from the replayed operation's wall time.
type span struct {
	ID, Parent, Trace int
	Name              string
	Start, End        int64 // ns since the tracer was created
	Probe             bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) now() int64 {
	return time.Since(t.t0).Nanoseconds()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, trace int) int {
	return t.open(span{Parent: parent, Trace: trace, Name: name})
}

// beginProbe opens a span for an extra, attribution-only call.
func (t *tracer) beginProbe(name string, parent, trace int) int {
	return t.open(span{Parent: parent, Trace: trace, Name: name, Probe: true})
}

func (t *tracer) open(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Start = len(t.spans), t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return t.spans[id].dur()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are merged,
// and children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// attribution summarises one operation's span tree: how long the operation
// took without its probes, and how much of that the named layers account for.
type attribution struct {
	// Wall is the root's duration minus every probe beneath it.
	Wall int64
	// Probes is the time spent in attribution-only calls.
	Probes int64
	// Self sums self time by span name over the root's non-probe descendants.
	Self map[string]int64
	// Unattributed is the self time of the root and of the grouping spans in
	// groups: loop overhead the harness could not charge to a layer.
	Unattributed int64
}

// coverage is the share of the operation's wall time charged to a layer.
func (a attribution) coverage() float64 {
	if a.Wall <= 0 {
		return 0
	}
	return float64(a.Wall-a.Unattributed) / float64(a.Wall)
}

// attribute walks the tree under root. Spans whose name is in groups only
// bracket other spans, so their own self time counts as unattributed. A
// probe is a leaf.
func attribute(spans []span, self []int64, root int, groups map[string]bool) attribution {
	a := attribution{Self: map[string]int64{}, Unattributed: self[root]}
	// Spans are appended in begin order, so a parent precedes its children.
	under := map[int]bool{root: true}
	for _, s := range spans[root+1:] {
		if !under[s.Parent] {
			continue
		}
		under[s.ID] = true
		switch {
		case s.Probe:
			a.Probes += s.dur()
			a.Self[s.Name] += self[s.ID]
		case groups[s.Name]:
			a.Unattributed += self[s.ID]
		default:
			a.Self[s.Name] += self[s.ID]
		}
	}
	a.Wall = spans[root].dur() - a.Probes
	return a
}

// writeNDJSON writes one JSON object per span, in begin order.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"trace":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d,"probe":%t}`+"\n",
			s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End, self[s.ID], s.Probe)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace %s: %w", path, err)
	}
	return nil
}
