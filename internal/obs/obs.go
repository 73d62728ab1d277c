// Package obs is the observability layer: counters, gauges, fixed-bucket
// histograms, and phase spans over the training pipeline, exported as
// NDJSON (one JSON object per line, stable field order).
//
// Design constraints, in order:
//
//   - Kernel-package purity. Kernel packages (internal/sample, internal/reg,
//     ...) may never read the wall clock (bettyvet's dettaint analyzer
//     enforces this), yet their phases must be timed. Time therefore enters
//     only through the Clock injected into the Registry: CLIs inject the
//     real clock, tests inject a deterministic FakeClock, and the
//     instrumented kernel code only ever calls StartSpan/End — it holds no
//     time source of its own.
//
//   - Near-zero disabled overhead. Every method is safe on a nil *Registry
//     and a nil *Span: the hot path pays one pointer test per call and
//     allocates nothing. Training code is instrumented unconditionally and
//     callers opt in by attaching a registry.
//
//   - Determinism under parallelism. The registry is lock-sharded by metric
//     name so concurrent workers never contend on one
//     mutex, and all metric state is commutative (atomic adds), so exported
//     values are identical for any worker count. Span records carry a
//     sequence number assigned in End order; phases recorded from the
//     serial training loop are therefore reproducible run-to-run under the
//     fake clock.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names used across the training pipeline. Spans are not restricted
// to these, but every instrumented site in this repository uses one of
// them, so consumers can rely on the taxonomy (DESIGN.md §10).
const (
	PhaseSample    = "sample"    // neighbor sampling (internal/sample)
	PhaseRegBuild  = "reg_build" // REG construction (internal/reg)
	PhasePartition = "partition" // K-way output partitioning
	PhaseEstimate  = "estimate"  // analytical memory estimation
	PhaseStage     = "stage"     // one gather of a batch's out-of-core input frontier
	PhaseH2D       = "h2d"       // host-to-device staging + ledger charge
	PhaseForward   = "forward"   // forward pass + loss
	PhaseBackward  = "backward"  // backward pass
	PhaseStep      = "step"      // optimizer step + gradient clear
	PhaseEval      = "eval"      // chunked evaluation
	PhaseEnqueue   = "enqueue"   // serving request admission (internal/serve)
	PhaseBatch     = "batch"     // serving batch execution (internal/serve)
	PhaseCollect   = "collect"   // serving batch formation: drain what is queued
	PhaseRespond   = "respond"   // serving score scatter + delivery to the callers
	PhaseMultiDev  = "multidev"  // multi-device epoch (core.MultiDevice)
	PhaseShard     = "shard"     // split-parallel shard execution of one micro-batch
)

// Clock is the injected time source. Now returns nanoseconds; only
// differences are ever interpreted, so the epoch is the clock's choice.
type Clock interface {
	Now() int64
}

// realClock reads the wall clock. It lives here — in a non-kernel package —
// so instrumented kernel code never touches package time itself.
type realClock struct{}

func (realClock) Now() int64 { return time.Now().UnixNano() }

// RealClock returns the wall clock used by the CLIs.
func RealClock() Clock { return realClock{} }

// FakeClock is a deterministic clock for tests and golden files: every Now
// call returns the current reading and advances it by a fixed step, so a
// serial sequence of spans gets reproducible timestamps and durations.
type FakeClock struct {
	mu   sync.Mutex
	now  int64
	step int64
}

// NewFakeClock returns a clock starting at start that self-advances by step
// nanoseconds per Now call.
func NewFakeClock(start, step int64) *FakeClock {
	return &FakeClock{now: start, step: step}
}

// Now returns the current reading and advances the clock by the step.
func (c *FakeClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.now
	c.now += c.step
	return v
}

// Advance moves the clock forward by d nanoseconds.
func (c *FakeClock) Advance(d int64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// numShards is the lock-sharding degree of the metric maps. Sixteen shards
// keep distinct-name contention negligible at any plausible worker count.
const numShards = 16

// metricShard holds the metrics whose names hash to one shard.
type metricShard struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Registry is the root of the observability layer: a sharded metric store
// plus an optional span trace. The zero value is not usable; construct with
// New. All methods are safe for concurrent use and safe on a nil receiver
// (they no-op), which is how disabled instrumentation stays free.
type Registry struct {
	clock   Clock
	tracing atomic.Bool

	shards [numShards]metricShard

	spanMu sync.Mutex
	spans  []SpanRecord
}

// New returns a registry using the given clock (nil means RealClock).
// Span tracing starts disabled; metrics are always on.
func New(clock Clock) *Registry {
	if clock == nil {
		clock = RealClock()
	}
	r := &Registry{clock: clock}
	for i := range r.shards {
		r.shards[i].counters = make(map[string]*Counter)
		r.shards[i].gauges = make(map[string]*Gauge)
		r.shards[i].histograms = make(map[string]*Histogram)
	}
	return r
}

// SetTracing enables or disables span-record collection. Span durations
// feed the per-phase histograms regardless; tracing additionally keeps one
// SpanRecord per span for the NDJSON trace.
func (r *Registry) SetTracing(on bool) {
	if r == nil {
		return
	}
	r.tracing.Store(on)
}

// Tracing reports whether span records are being collected.
func (r *Registry) Tracing() bool { return r != nil && r.tracing.Load() }

// shardFor hashes a metric name to its shard (FNV-1a).
func shardFor(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % numShards)
}

// Counter is a monotonically increasing metric. The nil counter (from a nil
// registry) ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d, for a level several goroutines raise and
// lower.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v when v is larger, for a high-water mark
// several goroutines feed.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for cur := g.v.Load(); v > cur && !g.v.CompareAndSwap(cur, v); cur = g.v.Load() {
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := &r.shards[shardFor(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := &r.shards[shardFor(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// HistogramWith returns (creating if needed) the named histogram with the
// given bucket bounds; nil on a nil registry. The bounds of an existing
// histogram are not changed.
func (r *Registry) HistogramWith(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	s := &r.shards[shardFor(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		s.histograms[name] = h
	}
	return h
}

// Add increments the named counter by d (no-op on nil registry).
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// Set sets the named gauge to v (no-op on nil registry).
func (r *Registry) Set(name string, v int64) { r.Gauge(name).Set(v) }

// Observe records v into the named histogram, creating it with bounds
// chosen from the name's unit suffix (see BoundsFor) if absent.
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.HistogramWith(name, BoundsFor(name)).Observe(v)
}

// CounterValue returns the named counter's value, 0 if absent or nil.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	s := &r.shards[shardFor(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name].Value()
}

// GaugeValue returns the named gauge's value and whether it exists.
func (r *Registry) GaugeValue(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	s := &r.shards[shardFor(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		return 0, false
	}
	return g.Value(), true
}

// Histogram is a fixed-bucket histogram over int64 observations. Bucket i
// counts observations v with bounds[i-1] < v <= bounds[i]; the final bucket
// is the overflow (v > bounds[len-1]). Counts are atomic, so concurrent
// observers commute and totals are exact for any worker count.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	total  atomic.Int64
}

// NewHistogram builds a histogram from the given upper bucket bounds,
// sanitizing them to a strictly increasing sequence (sorted, deduplicated).
// An empty bound set yields a single overflow bucket.
func NewHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Int64, len(uniq)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Bounds returns a copy of the sanitized bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// Counts returns a copy of the per-bucket counts (last entry is overflow).
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Default bucket bounds by unit. All are powers of a fixed base so golden
// files never depend on host behavior.
var (
	// DurationBounds covers 1µs .. 100s in decades (nanosecond values).
	DurationBounds = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	// SizeBounds covers 1KiB .. 16GiB in factors of 4.
	SizeBounds = []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
		1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32, 1 << 34}
	// CountBounds covers 1 .. 1e9 in decades.
	CountBounds = []int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// BoundsFor picks default histogram bounds from a metric name's unit
// suffix: "_ns" means durations, "_bytes" means sizes, anything else
// counts.
func BoundsFor(name string) []int64 {
	switch {
	case hasSuffix(name, "_ns"):
		return DurationBounds
	case hasSuffix(name, "_bytes"):
		return SizeBounds
	default:
		return CountBounds
	}
}

// hasSuffix is strings.HasSuffix without the import.
func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// Field is one integer attribute attached to a span.
type Field struct {
	Key string
	Val int64
}

// SpanRecord is one completed span as kept for the NDJSON trace.
type SpanRecord struct {
	// Seq is the record's position in End order (0-based).
	Seq int
	// Phase is the span's phase name.
	Phase string
	// StartNS and DurNS are the clock reading at start and the duration.
	StartNS, DurNS int64
	// Fields are the span's attributes, sorted by key.
	Fields []Field
}

// Span is one in-flight phase measurement. A nil span (from a nil
// registry) ignores all operations, so call sites need no guards.
type Span struct {
	r      *Registry
	phase  string
	start  int64
	fields []Field
}

// StartSpan begins a span of the given phase. It returns nil — a valid,
// inert span — when the registry is nil.
func (r *Registry) StartSpan(phase string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, phase: phase, start: r.clock.Now()}
}

// SetInt attaches an integer attribute to the span and returns it for
// chaining. Later values for the same key win.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	for i := range s.fields {
		if s.fields[i].Key == key {
			s.fields[i].Val = v
			return s
		}
	}
	s.fields = append(s.fields, Field{Key: key, Val: v})
	return s
}

// End completes the span: its duration is observed into the
// "span.<phase>_ns" histogram, and — when tracing is enabled — a SpanRecord
// is appended to the trace with the next sequence number.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := s.r.clock.Now() - s.start
	s.r.Observe("span."+s.phase+"_ns", dur)
	if !s.r.tracing.Load() {
		return
	}
	sort.Slice(s.fields, func(i, j int) bool { return s.fields[i].Key < s.fields[j].Key })
	s.r.spanMu.Lock()
	s.r.spans = append(s.r.spans, SpanRecord{
		Seq:     len(s.r.spans),
		Phase:   s.phase,
		StartNS: s.start,
		DurNS:   dur,
		Fields:  s.fields,
	})
	s.r.spanMu.Unlock()
}

// Spans returns a copy of the recorded span trace in sequence order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}
