package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// testData builds the small synthetic graph the serving tests share.
func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t", Nodes: 800, AvgDegree: 10, FeatureDim: 24,
		NumClasses: 5, Homophily: 0.8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testModel builds a deterministic GraphSAGE over d.
func testModel(t testing.TB, d *dataset.Dataset) any {
	t.Helper()
	s, err := core.BuildSAGE(d, core.Options{Seed: 50, Hidden: 16, Fanouts: []int{4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return s.Model
}

// testConfig is the deterministic-replay base config: fake clock, no
// default deadline, ample capacity.
func testConfig(clock obs.Clock, reg *obs.Registry) Config {
	cfg := Defaults()
	cfg.Fanouts = []int{4, 6}
	cfg.Seed = 9
	cfg.DefaultTimeout = 0
	cfg.Clock = clock
	cfg.Obs = reg
	return cfg
}

func newTestServer(t *testing.T, d *dataset.Dataset, model any, cfg Config) *Server {
	t.Helper()
	s, err := New(d, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// soloScores serves each request alone on a fresh server with the same
// seed — the ground truth coalesced responses must match bitwise.
func soloScores(t *testing.T, d *dataset.Dataset, model any, cfg Config, nodes []int32) [][]float32 {
	t.Helper()
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()
	scores, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

func bitwiseEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// A server from Defaults() runs the plain path: its cache ledger holds the
// model's parameters and nothing else, and it scores bitwise what the
// shared forward scores over the source's own feature rows.
func TestDefaultsArePlainPath(t *testing.T) {
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t2k", Nodes: 2048, AvgDegree: 10, FeatureDim: 128,
		NumClasses: 5, Homophily: 0.8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t, d)
	reg := obs.New(nil)
	cfg := Defaults()
	cfg.Fanouts = []int{4, 6}
	cfg.Seed = 9
	cfg.QueueDepth = 512
	cfg.Obs = reg
	s := newTestServer(t, d, model, cfg)
	spec, err := memory.SpecForInference(model)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes := device.RoundAlloc(int64(spec.Params) * memory.BytesPerValue)
	if got, ok := reg.GaugeValue("serve.cache_ledger_capacity_bytes"); !ok || got != paramBytes {
		t.Fatalf("cache ledger capacity %d (published %v), want the parameters' %d", got, ok, paramBytes)
	}
	s.Start()
	defer s.Close()
	if rep, err := runLoad(s, loadConfig{Requests: 300, NodesPerRequest: 8, Seed: 11}); err != nil || rep.Errors != 0 {
		t.Fatalf("load run: %v, report %+v", err, rep)
	}
	if peak, ok := reg.GaugeValue("serve.cache_ledger_peak_bytes"); !ok || peak != paramBytes {
		t.Fatalf("cache ledger peak %d (published %v), want the parameters' %d", peak, ok, paramBytes)
	}
	if st := s.StatsSnapshot(); st.EmbHits+st.EmbMisses != 0 || reg.CounterValue("embcache.computed_rows") != 0 {
		t.Fatalf("embedding-cache stubs kept for benchmark/ read nonzero: %+v", st)
	}

	nodes := []int32{3, 8, 120, 700, 41}
	got, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := sample.NewNodeWise(cfg.Fanouts, cfg.Seed).Sample(d.Graph, nodes)
	if err != nil {
		t.Fatal(err)
	}
	feats := tensor.New(blocks[0].NumSrc, d.FeatureDim())
	for i, nid := range blocks[0].SrcNID {
		copy(feats.Row(i), d.Features.Row(int(nid)))
	}
	logits, err := core.BatchInference(model, blocks, feats)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(nodes))
	for i := range want {
		want[i] = logits.Row(i)
	}
	if !bitwiseEqual(got, want) {
		t.Fatal("default serving differs from the shared forward over exact f32 features")
	}
}

// Coalesced responses must be bitwise what each request would have gotten
// alone, including shared and duplicated nodes, and the requests must have
// shared one batch.
func TestCoalescingIsExact(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	s := newTestServer(t, d, model, cfg)

	traces := [][]int32{
		{3, 8, 120},
		{8, 700, 3}, // overlaps request 0
		{41, 41, 5}, // duplicate node within one request
	}
	// Enqueue everything before Start so the worker's first drain must
	// coalesce all three into one batch.
	reqs := make([]*request, len(traces))
	for i, nodes := range traces {
		r, err := s.enqueue(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = r
	}
	s.Start()
	got := make([][][]float32, len(reqs))
	for i, r := range reqs {
		res := <-r.done
		if res.err != nil {
			t.Fatal(res.err)
		}
		got[i] = res.scores
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b := s.StatsSnapshot().Batches; b != 1 {
		t.Fatalf("3 pre-queued requests ran in %d batches, want 1", b)
	}
	for i, nodes := range traces {
		want := soloScores(t, d, model, testConfig(obs.NewFakeClock(0, 1), nil), nodes)
		if !bitwiseEqual(got[i], want) {
			t.Fatalf("request %d: coalesced response differs from solo response", i)
		}
	}
}

// probeClock is a FakeClock that, once armed, reads the batch counters at
// every Now. respond reads the clock just before it delivers, so its
// readings are what a caller sees the moment its response arrives.
type probeClock struct {
	*obs.FakeClock
	reg   *obs.Registry
	armed atomic.Bool
	mu    sync.Mutex
	seen  [][3]int64 // serve.batches, serve.batched_requests, batch_requests samples
}

func (c *probeClock) Now() int64 {
	if c.armed.Load() {
		h := c.reg.HistogramWith("serve.batch_requests", obs.BoundsFor("serve.batch_requests"))
		c.mu.Lock()
		c.seen = append(c.seen, [3]int64{c.reg.CounterValue("serve.batches"), c.reg.CounterValue("serve.batched_requests"), h.Count()})
		c.mu.Unlock()
	}
	return c.FakeClock.Now()
}

// A batch is counted before any of its requests is answered, so a caller
// that reads the stats after its response always finds its own batch.
func TestBatchCountedBeforeResponses(t *testing.T) {
	d := testData(t)
	reg := obs.New(obs.NewFakeClock(0, 1))
	clock := &probeClock{FakeClock: obs.NewFakeClock(0, 1), reg: reg}
	s := newTestServer(t, d, testModel(t, d), testConfig(clock, reg))
	var reqs []*request
	for _, nodes := range [][]int32{{3, 8}, {120}, {8, 700}} {
		r, err := s.enqueue(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	clock.armed.Store(true)
	s.Start()
	for _, r := range reqs {
		if res := <-r.done; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The worker's last clock reads are the three responds of its one batch.
	if len(clock.seen) < len(reqs) {
		t.Fatalf("%d clock reads, want at least %d", len(clock.seen), len(reqs))
	}
	for i, got := range clock.seen[len(clock.seen)-len(reqs):] {
		if want := [3]int64{1, int64(len(reqs)), 1}; got != want {
			t.Fatalf("response %d delivered with (batches, batched_requests, batch_requests samples) = %v, want %v", i, got, want)
		}
	}
}

// A capacity between one micro-batch and the whole batch forces K > 1;
// the split must stay invisible in the responses and the planned peak must
// respect the budget.
func TestMicroBatchSplitIsExactAndBudgeted(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	nodes := make([]int32, 120)
	for i := range nodes {
		nodes[i] = int32(i * 6)
	}
	want := soloScores(t, d, model, testConfig(obs.NewFakeClock(0, 1), nil), nodes)

	// Find a budget that forces a split: plan the same union unbounded,
	// then serve under half its peak.
	var log bytes.Buffer
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	cfg.BatchLog = &log
	probe := newTestServer(t, d, model, cfg)
	blocks, err := probe.sampler.Sample(d.Graph, nodes)
	if err != nil {
		t.Fatal(err)
	}
	est, err := memory.Estimate(blocks, probe.spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CapacityBytes = est.ForwardPeak() / 2
	s := newTestServer(t, d, model, cfg)
	s.Start()
	got, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !bitwiseEqual(got, want) {
		t.Fatal("micro-batched response differs from unsplit response")
	}
	st := s.StatsSnapshot()
	if st.MaxEstPeakBytes <= 0 || st.MaxEstPeakBytes > cfg.CapacityBytes {
		t.Fatalf("planned peak %d outside budget %d", st.MaxEstPeakBytes, cfg.CapacityBytes)
	}
	if !bytes.Contains(log.Bytes(), []byte(`"k":`)) || bytes.Contains(log.Bytes(), []byte(`"k":1,`)) {
		t.Fatalf("batch log does not show a split: %s", log.String())
	}
}

// The queue bound must reject with ErrQueueFull, and Close must fail
// queued requests with ErrClosed rather than stranding their callers.
func TestQueueOverflowAndClose(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	cfg := testConfig(obs.NewFakeClock(0, 1), obs.New(obs.NewFakeClock(0, 1)))
	cfg.QueueDepth = 2
	s := newTestServer(t, d, model, cfg) // never started: the queue can only fill
	r1, err := s.enqueue([]int32{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.enqueue([]int32{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.enqueue([]int32{3}, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow returned %v, want ErrQueueFull", err)
	}
	if s.StatsSnapshot().RejectedQueueFull != 1 {
		t.Fatal("overflow not counted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*request{r1, r2} {
		if res := <-r.done; !errors.Is(res.err, ErrClosed) {
			t.Fatalf("queued request got %v, want ErrClosed", res.err)
		}
	}
	if _, err := s.Predict([]int32{4}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Predict returned %v, want ErrClosed", err)
	}
}

// A request whose deadline passes while it queues must be failed at the
// batch boundary, not executed.
func TestDeadlineHonoredAtBatchBoundary(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	clock := obs.NewFakeClock(0, 0) // manual time: only Advance moves it
	cfg := testConfig(clock, obs.New(clock))
	s := newTestServer(t, d, model, cfg)
	expired, err := s.enqueue([]int32{7}, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := s.enqueue([]int32{9}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond.Nanoseconds())
	s.Start()
	defer s.Close()
	if res := <-expired.done; !errors.Is(res.err, ErrDeadlineExceeded) {
		t.Fatalf("expired request got %v, want ErrDeadlineExceeded", res.err)
	}
	if res := <-alive.done; res.err != nil {
		t.Fatalf("in-deadline request failed: %v", res.err)
	}
	if s.StatsSnapshot().DeadlineExceeded != 1 {
		t.Fatal("deadline rejection not counted")
	}
}

// Validation failures must reject before admission.
func TestRequestValidation(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	cfg := testConfig(obs.NewFakeClock(0, 1), nil)
	cfg.MaxRequestNodes = 4
	s := newTestServer(t, d, model, cfg)
	for _, nodes := range [][]int32{
		nil,
		{-1},
		{int32(d.Graph.NumNodes())},
		{1, 2, 3, 4, 5}, // over MaxRequestNodes
	} {
		if _, err := s.enqueue(nodes, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("nodes %v admitted (err %v), want ErrInvalid", nodes, err)
		}
	}
}

// panicSource is a dataset.FeatureSource whose gathers panic, to exercise
// the worker's panic isolation below.
type panicSource struct{ dim, rows int }

func (p panicSource) Rows() int                                { return p.rows }
func (p panicSource) Dim() int                                 { return p.dim }
func (p panicSource) GatherInto(*tensor.Tensor, []int32) error { panic("sabotaged feature gather") }
func (p panicSource) ResidentBytes() int64                     { return 0 }

// A panic while executing one batch must fail that batch's requests,
// return every pooled buffer the batch took, and leave the worker serving
// the next.
func TestPanicIsolation(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	s := newTestServer(t, d, model, cfg)
	outstanding := func() int64 {
		acquires, _, releases := tensor.PoolStats()
		return acquires - releases
	}

	// Sabotage: swap in a feature source that panics (a truncated matrix
	// no longer works — out-of-range gathers are descriptive errors now)
	// so the batch's input staging panics mid-pipeline.
	good := s.ds
	bad := *d
	bad.Features = nil
	bad.Source = panicSource{dim: d.FeatureDim(), rows: int(d.Graph.NumNodes())}
	s.ds = &bad
	s.Start()
	defer s.Close()
	// The worker is idle until the first Predict, so nothing moves the
	// pool between this reading and the panic.
	before := outstanding()
	_, err := s.Predict([]int32{5, 9}, 0)
	s.ds = good // repair; the worker is idle again once Predict has its answer
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicked batch returned %v, want a batch-panic error", err)
	}
	if reg.CounterValue("serve.panics") != 1 {
		t.Fatal("panic not counted")
	}
	if got := outstanding(); got != before {
		t.Fatalf("pooled buffers outstanding after the panic: %d, want %d", got, before)
	}
	// Worker must still serve, and its batch returns what it takes.
	if _, err := s.Predict([]int32{5, 9}, 0); err != nil {
		t.Fatalf("worker dead after panic: %v", err)
	}
	if got := outstanding(); got != before {
		t.Fatalf("pooled buffers outstanding after the next batch: %d, want %d", got, before)
	}
}

// Start drops what the process-wide tensor pool retained before serving —
// typically the training epochs' size classes — so a serving process holds
// pooled scratch for its own batches only.
func TestStartDrainsPool(t *testing.T) {
	const stale = 1 << 22 // floats: a 16 MiB class no serving batch here asks for
	tensor.ReleaseScratch(tensor.AcquireScratch(stale))
	if tensor.PoolBytes() < 4*stale {
		t.Fatalf("pool retains %d bytes after a %d-byte release", tensor.PoolBytes(), 4*stale)
	}
	d := testData(t)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	s := newTestServer(t, d, testModel(t, d), cfg)
	s.Start()
	for i := int32(0); i < 20; i++ {
		if _, err := s.Predict([]int32{i, 2 * i, 700 - i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Size classes round up to a power of two, hence the factor.
	if got, bound := tensor.PoolBytes(), 2*s.StatsSnapshot().MaxEstPeakBytes; got > bound {
		t.Fatalf("pool retains %d bytes after serving, above twice the largest planned batch (%d)", got, bound)
	}
}

// stageSpy is a FeatureSource that records where each row was staged.
type stageSpy struct {
	dataset.FeatureSource
	staged []*float32
}

func (p *stageSpy) GatherInto(out *tensor.Tensor, nids []int32) error {
	p.staged = append(p.staged, &out.Data[0])
	return p.FeatureSource.GatherInto(out, nids)
}

// The staged feature tensor is a tape allocation that core.PlannedForward
// hands back after the forward: a second batch of the same shape stages into the first
// one's storage instead of leaving a tensor of garbage per batch, and what
// it answers is still what a fresh server answers.
func TestStagedFeaturesArePooled(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	spied := *d
	spy := &stageSpy{FeatureSource: d.FeatureSource()}
	spied.Source = spy
	cfg := testConfig(obs.NewFakeClock(0, 1), nil)
	s := newTestServer(t, &spied, model, cfg)
	s.Start()
	nodes := []int32{3, 8, 120}
	var got [2][][]float32
	var first [2]*float32
	for i := range got {
		var err error
		if got[i], err = s.Predict(nodes, 0); err != nil {
			t.Fatal(err)
		}
		first[i], spy.staged = spy.staged[0], nil
	}
	s.Close()
	if first[0] != first[1] {
		t.Error("the second batch staged its features in fresh storage, not the first batch's")
	}
	want := soloScores(t, d, model, testConfig(obs.NewFakeClock(0, 1), nil), nodes)
	if !bitwiseEqual(got[0], want) || !bitwiseEqual(got[1], want) {
		t.Error("responses staged through pooled storage differ from a fresh server's")
	}
}

// gateSource is a FeatureSource whose first n gathers park until
// released, which holds n batches in flight without a clock. Each parked
// gather sends on entered.
type gateSource struct {
	dataset.FeatureSource
	n                int64
	parked           atomic.Int64
	entered, release chan struct{}
}

func newGateSource(src dataset.FeatureSource, n int) *gateSource {
	return &gateSource{FeatureSource: src, n: int64(n), entered: make(chan struct{}, n), release: make(chan struct{})}
}

func (g *gateSource) park() {
	if g.parked.Add(1) <= g.n {
		g.entered <- struct{}{}
		<-g.release
	}
}

func (g *gateSource) GatherInto(out *tensor.Tensor, nids []int32) error {
	g.park()
	return g.FeatureSource.GatherInto(out, nids)
}

// batchLogNodes returns the union each logged batch scored, in log order.
func batchLogNodes(t *testing.T, log []byte) [][]int32 {
	t.Helper()
	var out [][]int32
	for _, line := range bytes.Split(bytes.TrimSpace(log), []byte("\n")) {
		var rec struct{ Nodes []int32 }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("batch log line %q: %v", line, err)
		}
		out = append(out, rec.Nodes)
	}
	return out
}

// Batching is work-conserving: a free executor dispatches a lone request
// at once, and what arrives while every executor runs a batch forms the
// next batch — coalescing that follows load, with no clock anywhere in the
// path. Each of the W executors takes one lone request into the gate; the
// requests after them queue and form one batch.
func TestWorkConservingBatching(t *testing.T) {
	d := testData(t)
	gated := *d
	w := parallel.Workers()
	gate := newGateSource(d.FeatureSource(), w)
	gated.Source = gate
	var log bytes.Buffer
	clock := obs.NewFakeClock(0, 0) // never advances: nothing here may wait on time
	cfg := testConfig(clock, obs.New(clock))
	cfg.BatchLog = &log
	s := newTestServer(t, &gated, testModel(t, d), cfg)
	s.Start()
	var reqs []*request
	var want [][]int32
	for i := range int32(w) {
		nodes := []int32{2*i + 1, 2*i + 2}
		r, err := s.enqueue(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs, want = append(reqs, r), append(want, nodes)
		<-gate.entered // batch i is executing, and holds only this request
	}
	later := [][]int32{{3, 8, 120}, {8, 700, 3}, {41, 5}, {700, 701, 702}, {9}}
	for _, nodes := range later {
		r, err := s.enqueue(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	close(gate.release)
	for i, r := range reqs {
		if res := <-r.done; res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
	}
	s.Close()
	want = append(want, []int32{3, 8, 120, 700, 41, 5, 701, 702, 9})
	if got := batchLogNodes(t, log.Bytes()); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("batches scored %v, want the first %d requests alone and then every later one together: %v", got, w, want)
	}

	// The rule leaves nothing to wait on: no timer in the package.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(f, "_test.go") && bytes.Contains(src, []byte("time."+"NewTimer")) {
			t.Errorf("%s still arms a timer", f)
		}
	}
}

// A fixed request trace must produce byte-identical batch logs and
// bitwise-identical responses at any worker count, and so at any executor
// count: New starts one executor per worker.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	d := testData(t)
	traces := [][]int32{
		{3, 8, 120}, {8, 700, 3}, {41, 5}, {700, 701, 702, 3},
	}
	run := func(workers int) (string, [][][]float32) {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		model := testModel(t, d)
		var log bytes.Buffer
		cfg := testConfig(obs.NewFakeClock(0, 1), nil)
		cfg.BatchLog = &log
		cfg.MaxBatch = 6 // forces the trace into multiple batches
		s := newTestServer(t, d, model, cfg)
		reqs := make([]*request, len(traces))
		for i, nodes := range traces {
			r, err := s.enqueue(nodes, 0)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = r
		}
		s.Start()
		out := make([][][]float32, len(reqs))
		for i, r := range reqs {
			res := <-r.done
			if res.err != nil {
				t.Fatal(res.err)
			}
			out[i] = res.scores
		}
		s.Close()
		return log.String(), out
	}
	log1, out1 := run(1)
	if strings.Count(log1, "\n") < 2 {
		t.Fatalf("batch log %q: want the trace split into several batches", log1)
	}
	for _, w := range []int{4, 8} {
		logW, outW := run(w)
		if log1 != logW {
			t.Fatalf("batch logs differ across worker counts:\n1: %s\n%d: %s", log1, w, logW)
		}
		for i := range out1 {
			if !bitwiseEqual(out1[i], outW[i]) {
				t.Fatalf("request %d responses differ between 1 and %d workers", i, w)
			}
		}
	}
}

// Spans for every serving phase must appear under the fake clock.
func TestServingSpans(t *testing.T) {
	clock := obs.NewFakeClock(0, 10)
	reg := obs.New(clock)
	reg.SetTracing(true)
	d := testData(t)
	model := testModel(t, d)
	s := newTestServer(t, d, model, testConfig(clock, reg))
	s.Start()
	if _, err := s.Predict([]int32{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	// The batch span covers the respond phase, so it ends after Predict has
	// its answer; Close waits for the worker, and with it for that End.
	s.Close()
	// Every span the server emits for a batch names it, so one batch's
	// phases can be grepped from the trace.
	batchOf := map[string]int64{}
	for _, sp := range reg.Spans() {
		batchOf[sp.Phase] = -1
		for _, f := range sp.Fields {
			if f.Key == "batch" {
				batchOf[sp.Phase] = f.Val
			}
		}
	}
	for _, want := range []string{obs.PhaseEnqueue, obs.PhaseSample, obs.PhaseEstimate} {
		if _, ok := batchOf[want]; !ok {
			t.Fatalf("no %q span recorded (got %v)", want, batchOf)
		}
	}
	for _, want := range []string{obs.PhaseCollect, obs.PhaseBatch, obs.PhaseH2D, obs.PhaseForward, obs.PhaseRespond} {
		if seq, ok := batchOf[want]; !ok || seq != 0 {
			t.Fatalf("%q span of the first batch: recorded %v, batch %d, want batch 0 (got %v)", want, ok, seq, batchOf)
		}
	}
	if reg.HistogramWith("serve.queue_wait_ns", nil).Count() == 0 {
		t.Fatal("queue wait not observed")
	}
	if reg.HistogramWith("serve.e2e_ns", nil).Count() == 0 {
		t.Fatal("e2e latency not observed")
	}
}

// Config validation: every policy field is range-checked.
func TestConfigValidate(t *testing.T) {
	base := func() Config {
		c := Defaults()
		c.Fanouts = []int{4, 6}
		return c
	}
	if c := base(); c.Validate() != nil {
		t.Fatalf("defaults rejected: %v", c.Validate())
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Fanouts = nil },
		func(c *Config) { c.Fanouts = []int{0} },
		func(c *Config) { c.MaxBatch = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.DefaultTimeout = -time.Second },
		func(c *Config) { c.MaxRequestNodes = 0 },
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.SafetyMargin = -0.1 },
	} {
		c := base()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config accepted: %+v", c)
		}
	}
}

// New must reject model/config mismatches.
func TestNewValidation(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	cfg := testConfig(nil, nil)
	cfg.Fanouts = []int{4} // model has 2 layers
	if _, err := New(d, model, cfg); err == nil {
		t.Fatal("fanout/layer mismatch accepted")
	}
	if _, err := New(d, struct{}{}, testConfig(nil, nil)); err == nil {
		t.Fatal("unsupported model accepted")
	}
}

// The load generator must drive a live server and report sane latencies.
func TestRunLoad(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	cfg := testConfig(nil, obs.New(nil)) // real clock: loadgen measures wall time
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()
	rep, err := runLoad(s, loadConfig{Requests: 20, NodesPerRequest: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d load errors", rep.Errors)
	}
	if rep.ThroughputRPS <= 0 || rep.P50NS <= 0 || rep.P99NS < rep.P50NS || rep.MaxNS < rep.P99NS {
		t.Fatalf("implausible report: %+v", rep)
	}
	if _, err := runLoad(s, loadConfig{}); err == nil {
		t.Fatal("zero-request load accepted")
	}
}

// Serving samples node-wise, so a node's rows are a pure function of
// (seed, node, weights), never of its batch. Three overlapping requests on
// one server each get bitwise what they would have gotten alone, and the
// frontier meter sees the overlap between consecutive batches.
func TestCrossBatchOverlapIsExact(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	reg := obs.New(obs.NewFakeClock(0, 1))
	cfg := testConfig(obs.NewFakeClock(0, 1), reg)
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()

	soloCfg := cfg
	soloCfg.Obs = obs.New(obs.NewFakeClock(0, 1))
	for _, nodes := range [][]int32{
		{3, 8, 120, 700},
		{8, 3, 200, 305}, // overlaps batch 0
		{700, 305, 9, 42},
	} {
		got, err := s.Predict(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, soloScores(t, d, model, soloCfg, nodes)) {
			t.Fatalf("coalesced response for %v diverged from solo", nodes)
		}
	}
	if reg.CounterValue("sample.frontier.reuse_nodes") == 0 {
		t.Fatal("frontier meter saw no overlap between overlapping batches")
	}
}

// The graceful-drain pin for the Start/Close race fix: Close racing
// in-flight Predicts must give every request exactly one terminal outcome
// (scores, or ErrClosed at admission), concurrent and repeated Close calls
// all succeed after the drain, and Start after Close stays a no-op. A
// dropped request hangs its Predict and fails the test by timeout.
func TestGracefulDrainUnderLoad(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	for round := 0; round < 3; round++ {
		reg := obs.New(nil)
		cfg := testConfig(nil, reg) // real clock
		cfg.QueueDepth = 256
		s := newTestServer(t, d, model, cfg)
		s.Start()

		const callers = 24
		var wg sync.WaitGroup
		outcomes := make([]error, callers)
		scores := make([][][]float32, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sc, err := s.Predict([]int32{int32(i), int32(i + 100), 7}, 0)
				scores[i], outcomes[i] = sc, err
			}(i)
		}
		// Widen the race window differently each round: round 0 closes
		// immediately, later rounds close mid-drain.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		closeErrs := make(chan error, 2)
		go func() { closeErrs <- s.Close() }()
		go func() { closeErrs <- s.Close() }()
		wg.Wait()
		for i := 0; i < 2; i++ {
			if err := <-closeErrs; err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		}
		for i, err := range outcomes {
			switch {
			case err == nil:
				if len(scores[i]) != 3 {
					t.Fatalf("round %d request %d: %d score rows for 3 nodes", round, i, len(scores[i]))
				}
			case errors.Is(err, ErrClosed):
			default:
				t.Fatalf("round %d request %d: unexpected terminal error %v", round, i, err)
			}
		}
		// Once drained, the server stays closed: Start is a no-op and new
		// admissions are rejected, not silently dropped.
		s.Start()
		if _, err := s.Predict([]int32{1}, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Predict after Close returned %v, want ErrClosed", round, err)
		}
	}
}
