package obs

import (
	"strings"
	"sync"
	"testing"
)

// Every operation must be a no-op on a nil registry and nil span — that is
// the entire "disabled instrumentation is free" contract.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Add("c", 1)
	r.Set("g", 2)
	r.Gauge("g").Add(1)
	r.Gauge("g").SetMax(4)
	r.Observe("h_ns", 3)
	r.SetTracing(true)
	if r.Tracing() {
		t.Fatal("nil registry reports tracing")
	}
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.HistogramWith("h", nil) != nil {
		t.Fatal("nil registry returned a live metric")
	}
	if got := r.CounterValue("c"); got != 0 {
		t.Fatalf("CounterValue = %d", got)
	}
	if _, ok := r.GaugeValue("g"); ok {
		t.Fatal("nil registry has a gauge")
	}
	sp := r.StartSpan(PhaseForward)
	if sp != nil {
		t.Fatal("nil registry returned a live span")
	}
	sp.SetInt("k", 1).SetInt("k", 2)
	sp.End()
	if r.Spans() != nil || r.Records() != nil {
		t.Fatal("nil registry exported something")
	}
	if err := r.WriteFile("/nonexistent/dir/file"); err != nil {
		t.Fatalf("nil WriteFile: %v", err)
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil || h.Counts() != nil {
		t.Fatal("nil histogram holds state")
	}
}

func TestCountersGaugesBasics(t *testing.T) {
	r := New(NewFakeClock(0, 1))
	r.Add("a", 3)
	r.Add("a", 4)
	if got := r.CounterValue("a"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
	r.Set("g", 10)
	r.Set("g", -2)
	if v, ok := r.GaugeValue("g"); !ok || v != -2 {
		t.Fatalf("gauge = %d,%v, want -2,true", v, ok)
	}
	if _, ok := r.GaugeValue("missing"); ok {
		t.Fatal("missing gauge exists")
	}
	// Same name returns the same metric object.
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.HistogramWith("h", CountBounds) != r.HistogramWith("h", SizeBounds) {
		t.Fatal("HistogramWith not idempotent")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{-5, 10, 11, 100, 101, 1 << 40} {
		h.Observe(v)
	}
	// Buckets: v<=10, 10<v<=100, v>100.
	want := []int64{2, 2, 2}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != -5+10+11+100+101+(1<<40) {
		t.Fatalf("sum = %d", h.Sum())
	}
}

// Unsorted and duplicated bounds are sanitized at construction.
func TestHistogramSanitizesBounds(t *testing.T) {
	h := NewHistogram([]int64{100, 10, 100, 10, 1})
	b := h.Bounds()
	want := []int64{1, 10, 100}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	if len(h.Counts()) != len(want)+1 {
		t.Fatalf("counts len = %d, want %d", len(h.Counts()), len(want)+1)
	}
}

func TestBoundsForSuffix(t *testing.T) {
	if got := BoundsFor("span.forward_ns"); got[0] != DurationBounds[0] {
		t.Fatalf("ns bounds = %v", got)
	}
	if got := BoundsFor("micro.peak_bytes"); got[0] != SizeBounds[0] {
		t.Fatalf("bytes bounds = %v", got)
	}
	if got := BoundsFor("train.micro_batches"); got[0] != CountBounds[0] {
		t.Fatalf("count bounds = %v", got)
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(100, 10)
	if c.Now() != 100 || c.Now() != 110 {
		t.Fatal("fake clock does not self-advance")
	}
	c.Advance(1000)
	if got := c.Now(); got != 1120 {
		t.Fatalf("after Advance, Now = %d, want 1120", got)
	}
}

func TestSpanRecordingAndFields(t *testing.T) {
	r := New(NewFakeClock(0, 1000))
	r.SetTracing(true)
	sp := r.StartSpan(PhaseSample).SetInt("seeds", 64).SetInt("layers", 2)
	sp.SetInt("seeds", 65) // later value wins
	sp.End()
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	got := spans[0]
	if got.Seq != 0 || got.Phase != PhaseSample || got.StartNS != 0 || got.DurNS != 1000 {
		t.Fatalf("span = %+v", got)
	}
	// Fields sorted by key, dedup applied.
	if len(got.Fields) != 2 || got.Fields[0].Key != "layers" || got.Fields[1].Val != 65 {
		t.Fatalf("fields = %+v", got.Fields)
	}
	// Duration also landed in the per-phase histogram.
	h := r.HistogramWith("span.sample_ns", nil)
	if h.Count() != 1 || h.Sum() != 1000 {
		t.Fatalf("phase hist count=%d sum=%d", h.Count(), h.Sum())
	}
}

// With tracing off, spans still feed histograms but leave no trace records.
func TestTracingOffKeepsHistograms(t *testing.T) {
	r := New(NewFakeClock(0, 7))
	r.StartSpan(PhaseForward).End()
	if len(r.Spans()) != 0 {
		t.Fatal("span recorded with tracing off")
	}
	if r.HistogramWith("span.forward_ns", nil).Count() != 1 {
		t.Fatal("phase histogram not fed with tracing off")
	}
}

// Concurrent metric updates across goroutines must commute exactly.
func TestConcurrentMetricsExact(t *testing.T) {
	r := New(NewFakeClock(0, 1))
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("c", 1)
				r.Observe("h", int64(i%7))
				r.Gauge("level").Add(2)
				r.Gauge("level").Add(-1)
				r.Gauge("high").SetMax(int64(g*per + i))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got, _ := r.GaugeValue("level"); got != goroutines*per {
		t.Fatalf("gauge moved by Add = %d, want %d", got, goroutines*per)
	}
	if got, _ := r.GaugeValue("high"); got != goroutines*per-1 {
		t.Fatalf("gauge raised by SetMax = %d, want %d", got, goroutines*per-1)
	}
	h := r.HistogramWith("h", nil)
	if h.Count() != goroutines*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), goroutines*per)
	}
	var total int64
	for _, c := range h.Counts() {
		total += c
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, Count = %d", total, h.Count())
	}
}

// Names landing in different shards stay independent; shardFor must be a
// pure function of the name.
func TestSharding(t *testing.T) {
	names := []string{"a", "b", "c", "train.steps", "span.forward_ns", "plan.k"}
	for _, n := range names {
		if shardFor(n) != shardFor(n) {
			t.Fatalf("shardFor(%q) unstable", n)
		}
		if s := shardFor(n); s < 0 || s >= numShards {
			t.Fatalf("shardFor(%q) = %d out of range", n, s)
		}
	}
	r := New(NewFakeClock(0, 1))
	for i, n := range names {
		r.Add(n, int64(i+1))
	}
	for i, n := range names {
		if got := r.CounterValue(n); got != int64(i+1) {
			t.Fatalf("counter %q = %d, want %d", n, got, i+1)
		}
	}
}

func TestRecordsLayout(t *testing.T) {
	r := New(NewFakeClock(0, 500))
	r.SetTracing(true)
	r.StartSpan(PhaseStep).SetInt("k", 4).End()
	r.Add("z.counter", 1)
	r.Set("a.gauge", 9)
	recs := r.Records()
	if len(recs) < 4 {
		t.Fatalf("records = %v", recs)
	}
	if recs[0] != `{"type":"meta","schema":1}` {
		t.Fatalf("meta line = %s", recs[0])
	}
	if want := `{"type":"span","seq":0,"phase":"step","start_ns":0,"dur_ns":500,"fields":{"k":4}}`; recs[1] != want {
		t.Fatalf("span line = %s, want %s", recs[1], want)
	}
	// Counters precede gauges precede histograms, each name-sorted.
	var kinds []string
	for _, line := range recs[1:] {
		switch {
		case strings.HasPrefix(line, `{"type":"span"`):
			kinds = append(kinds, "span")
		case strings.HasPrefix(line, `{"type":"counter"`):
			kinds = append(kinds, "counter")
		case strings.HasPrefix(line, `{"type":"gauge"`):
			kinds = append(kinds, "gauge")
		case strings.HasPrefix(line, `{"type":"hist"`):
			kinds = append(kinds, "hist")
		default:
			t.Fatalf("unknown record %s", line)
		}
	}
	want := []string{"span", "counter", "gauge", "hist"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}
