// Package serve is the memory-aware online inference layer: a dynamic
// batcher coalesces concurrent prediction requests into one sampled batch,
// and the shared planned forward (core.PlannedForward) splits it with the
// §4.4.3 planner into micro-batches whose estimated forward footprint fits
// the device budget and produces the scores.
//
// The correctness contract is exactness under coalescing: every response
// is bitwise identical to what the same request would have received alone.
// Two properties make that hold. First, sampling is node-wise
// (sample.NodeWise): a node's sampled neighborhood is a pure function of
// (seed, node, layer), never of its batch, so merging requests
// deduplicates shared frontier nodes instead of re-randomizing them.
// Second, every forward kernel computes each output row only from that
// row's own inputs, so slicing a batch into micro-batches — or merging
// requests into a batch — cannot perturb any row's float sequence.
//
// Admission is bounded: a full queue rejects immediately (ErrQueueFull →
// HTTP 429), per-request deadlines are honored at batch boundaries
// (ErrDeadlineExceeded → 504), and a closed server drains what it has
// already admitted before stopping (ErrClosed → 503 for new work). A
// panic while executing a batch fails that batch's requests and the
// worker keeps serving.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/sample"
	"betty/internal/tensor"
	"betty/internal/train"
)

// Sentinel errors of the admission path; the HTTP layer maps them to
// status codes (429, 504, 503, 400).
var (
	ErrQueueFull        = errors.New("serve: queue full")
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	ErrClosed           = errors.New("serve: server closed")
	ErrInvalid          = errors.New("serve: invalid request")
)

// request is one admitted prediction request awaiting batching.
type request struct {
	nodes []int32
	// deadline is the clock reading after which the request must not be
	// executed (0 = none); enq is the clock reading at admission.
	deadline int64
	enq      int64
	done     chan response
}

// response carries the per-node class scores (row i scores nodes[i]) or
// the terminal error.
type response struct {
	scores [][]float32
	err    error
}

// Server coalesces prediction requests into memory-planned batches over
// one model. Construct with New, call Start to begin serving, Close to
// drain and stop.
type Server struct {
	cfg     Config
	ds      *dataset.Dataset
	model   train.Model
	sampler *sample.NodeWise
	spec    memory.Spec
	part    reg.BatchPartitioner
	clock   obs.Clock
	obs     *obs.Registry
	// cacheLedger is the device ledger of what stays resident between
	// batches: params, the model's parameters, and nothing else.
	cacheLedger *device.Device
	params      []*device.Buffer
	// frontier measures cross-batch layer-1 frontier overlap, published as
	// sample.frontier.*.
	frontier *frontierMeter
	// stage holds an out-of-core batch's input frontier (worker-only).
	stage dataset.Stage

	queue chan *request

	mu      sync.Mutex // guards closed, started, and the send side of queue
	closed  bool
	started bool
	wg      sync.WaitGroup
	// closeDone is closed once the first Close call has finished draining
	// and freeing; concurrent/repeat Close calls wait on it so no caller
	// returns while the server is still being torn down.
	closeDone chan struct{}

	// batchSeq numbers executed batches for the batch log (worker-only).
	batchSeq int64
	// maxEstPeak tracks the largest planned micro-batch forward peak
	// (worker-only; exported as the serve.max_est_peak_bytes gauge).
	maxEstPeak int64
}

// New builds a server for the given dataset and model. The model must be
// one of the supported architectures (memory.SpecForInference) and cfg
// must validate; cfg.Fanouts must match the model's layer count.
//
// The model's weights must be final when New is called and must not change
// for the server's lifetime: load the checkpoint or finish training first,
// as bettyserve does. The batch worker reads them without a lock.
func New(ds *dataset.Dataset, model any, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, ok := model.(train.Model)
	if !ok {
		return nil, fmt.Errorf("serve: %T has no forward", model)
	}
	spec, err := memory.SpecForInference(model)
	if err != nil {
		return nil, err
	}
	if len(cfg.Fanouts) != spec.Model.Layers {
		return nil, fmt.Errorf("serve: %d fanouts for %d model layers", len(cfg.Fanouts), spec.Model.Layers)
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.RealClock()
	}
	// The parameters are the first charge of every planned micro-batch's
	// ForwardPeak, and the only one the ledger holds.
	ledger := device.New(device.RoundAlloc(int64(spec.ParamsGNN+spec.ParamsAgg)*memory.BytesPerValue), device.CostModel{})
	params, err := memory.AllocResident(ledger, m, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		ds:          ds,
		model:       m,
		sampler:     sample.NewNodeWise(cfg.Fanouts, cfg.Seed),
		spec:        spec,
		part:        reg.BettyBatch{Seed: cfg.Seed ^ 0xb7, Obs: cfg.Obs},
		clock:       cfg.Clock,
		obs:         cfg.Obs,
		cacheLedger: ledger,
		params:      params,
		frontier:    newFrontierMeter(cfg.Obs),
		queue:       make(chan *request, cfg.QueueDepth),
		closeDone:   make(chan struct{}),
	}
	s.sampler.Obs = cfg.Obs
	s.obs.Set("serve.cache_ledger_capacity_bytes", ledger.Capacity())
	s.publishLedger()
	// Registered at zero only for benchmark/serve.go, which still reads
	// the deleted embedding cache's counter (ROADMAP, the benchmark queue).
	s.obs.Counter("embcache.computed_rows")
	return s, nil
}

// Start launches the batch worker. Requests may be enqueued before Start;
// they are served in admission order once the worker runs (tests use this
// to fix batch compositions deterministically). Start is idempotent, and
// Start after (or racing) Close is a no-op: launching a worker once the
// queue is closed would race Close's own drain — both would pull from the
// closed queue while Close is already freeing the parameters behind it.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	// Training, which usually precedes serving in the same process, leaves
	// the tensor pool full of size classes serving never asks for again.
	tensor.DrainPool()
	s.wg.Add(1)
	go s.worker()
}

// Close stops admission, drains every already-admitted request, waits for
// the worker to exit, and only then frees the parameters' charge.
// It is idempotent, and every Close call (not just the first) returns only
// after the drain and the free have finished. Close on a never-Started server
// fails queued requests with ErrClosed instead of leaving their callers
// waiting.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return nil
	}
	s.closed = true
	started := s.started
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	if !started {
		// No worker ever ran: the drain is ours. (A worker started after
		// this point is impossible — Start checks closed under mu.)
		for req := range s.queue {
			s.respond(req, response{err: ErrClosed})
		}
	}
	// The worker has exited and the queue is drained, so no batch can
	// still be reading the parameters.
	memory.Free(s.cacheLedger, s.params)
	s.publishLedger()
	close(s.closeDone)
	return nil
}

// publishLedger exports the cache ledger's residency and peak.
func (s *Server) publishLedger() {
	s.obs.Set("serve.cache_ledger_bytes", s.cacheLedger.Used())
	s.obs.Set("serve.cache_ledger_peak_bytes", s.cacheLedger.Peak())
}

// Predict scores the given nodes and blocks until the response is ready.
// timeout overrides the configured default deadline; negative means "use
// the default", 0 means "no deadline".
func (s *Server) Predict(nodes []int32, timeout time.Duration) ([][]float32, error) {
	req, err := s.enqueue(nodes, timeout)
	if err != nil {
		return nil, err
	}
	res := <-req.done
	return res.scores, res.err
}

// enqueue validates and admits one request without waiting for its result.
func (s *Server) enqueue(nodes []int32, timeout time.Duration) (*request, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrInvalid)
	}
	if len(nodes) > s.cfg.MaxRequestNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds the %d-node request bound",
			ErrInvalid, len(nodes), s.cfg.MaxRequestNodes)
	}
	for _, v := range nodes {
		if v < 0 || v >= s.ds.Graph.NumNodes() {
			return nil, fmt.Errorf("%w: node %d out of range [0, %d)", ErrInvalid, v, s.ds.Graph.NumNodes())
		}
	}
	if timeout < 0 {
		timeout = s.cfg.DefaultTimeout
	}
	sp := s.obs.StartSpan(obs.PhaseEnqueue).SetInt("nodes", int64(len(nodes)))
	defer sp.End()
	now := s.clock.Now()
	req := &request{
		nodes: append([]int32(nil), nodes...),
		enq:   now,
		done:  make(chan response, 1),
	}
	if timeout > 0 {
		req.deadline = now + timeout.Nanoseconds()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.obs.Add("serve.rejected_closed", 1)
		return nil, ErrClosed
	}
	select {
	case s.queue <- req:
	default:
		s.obs.Add("serve.rejected_queue_full", 1)
		return nil, ErrQueueFull
	}
	s.obs.Add("serve.requests", 1)
	s.obs.Set("serve.queue_depth", int64(len(s.queue)))
	return req, nil
}

// worker is the batch loop: collect, filter expired, execute, repeat,
// until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		req, ok := <-s.queue
		if !ok {
			return
		}
		batch := s.collect(req)
		// Publish the depth at dequeue time too, so an observer can tell
		// "queued" from "in flight" while a batch runs.
		s.obs.Set("serve.queue_depth", int64(len(s.queue)))
		s.obs.Set("serve.inflight_requests", int64(len(batch)))
		now := s.clock.Now()
		live := batch[:0]
		for _, r := range batch {
			if r.deadline > 0 && now > r.deadline {
				s.obs.Add("serve.deadline_exceeded", 1)
				s.respond(r, response{err: ErrDeadlineExceeded})
				continue
			}
			live = append(live, r)
		}
		if len(live) > 0 {
			s.runBatch(live)
		}
		s.obs.Set("serve.inflight_requests", 0)
		s.obs.Set("serve.queue_depth", int64(len(s.queue)))
	}
}

// collect forms one batch from first plus whatever is already queued, up
// to MaxBatch seed nodes, and never waits: an idle worker dispatches a lone
// request at once, and requests that arrive while a batch executes queue up
// to form the next one, so batch size follows load, not a timer.
func (s *Server) collect(first *request) []*request {
	sp := s.obs.StartSpan(obs.PhaseCollect).SetInt("batch", s.batchSeq)
	defer sp.End()
	batch := []*request{first}
	for seeds := len(first.nodes); seeds < s.cfg.MaxBatch; {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, r)
			seeds += len(r.nodes)
		default:
			return batch
		}
	}
	return batch
}

// respond delivers res to req exactly once and records its end-to-end
// latency.
func (s *Server) respond(req *request, res response) {
	s.obs.Observe("serve.e2e_ns", s.clock.Now()-req.enq)
	req.done <- res
}

// runBatch executes one coalesced batch end to end. A panic anywhere in
// the pipeline is isolated here: the batch's requests fail, the worker
// survives.
func (s *Server) runBatch(batch []*request) {
	defer func() {
		if r := recover(); r != nil {
			s.obs.Add("serve.panics", 1)
			err := fmt.Errorf("serve: batch panicked: %v", r)
			for _, req := range batch {
				s.respond(req, response{err: err})
			}
		}
	}()
	// The batch's spans carry its batch-log number, so its phases can be
	// grepped from the trace.
	sp := s.obs.StartSpan(obs.PhaseBatch).SetInt("batch", s.batchSeq).SetInt("requests", int64(len(batch)))
	defer sp.End()
	now := s.clock.Now()
	for _, req := range batch {
		s.obs.Observe("serve.queue_wait_ns", now-req.enq)
	}

	// Deduplicate the requests' nodes into one seed list. Union order is
	// first-occurrence order, a pure function of the batch composition.
	index := make(map[int32]int, len(batch[0].nodes)*len(batch))
	var union []int32
	for _, req := range batch {
		for _, v := range req.nodes {
			if _, ok := index[v]; !ok {
				index[v] = len(union)
				union = append(union, v)
			}
		}
	}
	sp.SetInt("union_nodes", int64(len(union)))

	scores, err := s.scoreUnion(union)
	if err != nil {
		for _, req := range batch {
			s.respond(req, response{err: err})
		}
		return
	}

	rsp := s.obs.StartSpan(obs.PhaseRespond).SetInt("batch", s.batchSeq)
	for _, req := range batch {
		out := make([][]float32, len(req.nodes))
		for i, v := range req.nodes {
			out[i] = scores[index[v]]
		}
		s.respond(req, response{scores: out})
	}
	rsp.End()
	s.batchSeq++
	s.obs.Add("serve.batches", 1)
	s.obs.Add("serve.batched_requests", int64(len(batch)))
	s.obs.Observe("serve.batch_requests", int64(len(batch)))
}

// scoreUnion samples the deduplicated seed list and scores it through
// core.PlannedForward, returning one score row per union node. It also
// emits the batch-log line, which must happen after planning (it records
// K and the estimate).
func (s *Server) scoreUnion(union []int32) ([][]float32, error) {
	blocks, err := s.sampler.Sample(s.ds.Graph, union)
	if err != nil {
		return nil, fmt.Errorf("serve: sampling: %w", err)
	}
	s.frontier.Observe(blocks[0].DstNID)
	// The forward is not charged: the cache ledger's peak is the
	// serve_*/peak_device_bytes the benchmark reports (DESIGN.md §11).
	scores := make([][]float32, len(union))
	plan, err := core.PlannedForward(s.planner(), blocks, s.model, s.ds.FeatureSource(), &s.stage, nil, s.batchSeq,
		func(pos int, row []float32) { scores[pos] = append([]float32(nil), row...) })
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if plan.MaxPeak > s.maxEstPeak {
		s.maxEstPeak = plan.MaxPeak
		s.obs.Set("serve.max_est_peak_bytes", s.maxEstPeak)
	}
	// layer1_dst_rows counts the layer-1 rows the forwards computed.
	for _, micro := range plan.Micro {
		s.obs.Add("serve.layer1_dst_rows", int64(micro[0].NumDst))
	}
	s.obs.Add("serve.served_nodes", int64(len(union)))
	s.writeBatchLog(union, plan)
	return scores, nil
}

// planner is the §4.4.3 planner every batch is split with: forward-only
// peaks (memory.Breakdown.ForwardPeak) against CapacityBytes.
func (s *Server) planner() *memory.Planner {
	return &memory.Planner{
		Capacity:     s.cfg.CapacityBytes,
		Partitioner:  s.part,
		Spec:         s.spec,
		MaxK:         s.cfg.MaxK,
		SafetyMargin: s.cfg.SafetyMargin,
		Obs:          s.obs,
		Peak:         memory.Breakdown.ForwardPeak,
	}
}

// writeBatchLog emits one hand-assembled NDJSON line describing the batch
// composition and plan. Every field is a pure function of the admitted
// request trace — no timestamps, no durations — so a fixed trace yields
// byte-identical logs at any worker count.
func (s *Server) writeBatchLog(union []int32, plan *memory.Plan) {
	w := s.cfg.BatchLog
	if w == nil {
		return
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"type":"batch","seq":%d,"union":%d,"k":%d,"est_peak_bytes":%d,"nodes":`,
		s.batchSeq, len(union), plan.K, plan.MaxPeak)
	b.WriteByte('[')
	for i, v := range union {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	b.WriteString("]}\n")
	if _, err := w.Write(b.Bytes()); err != nil {
		s.obs.Add("serve.batch_log_errors", 1)
	}
}

// Stats is a point-in-time snapshot of the serving counters most tests
// and operators need without parsing the metrics export.
type Stats struct {
	Requests, Batches, BatchedRequests  int64
	RejectedQueueFull, DeadlineExceeded int64
	// CacheHits, CacheMisses, EmbHits and EmbMisses are always zero:
	// serving has neither a feature cache nor an embedding cache. They stay
	// only for benchmark/serve.go, which reads them until the next change
	// to benchmark/ drops those reads (ROADMAP).
	CacheHits, CacheMisses int64
	EmbHits, EmbMisses     int64
	MaxEstPeakBytes        int64
}

// StatsSnapshot reads the counters from the registry (zero without one).
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Requests:          s.obs.CounterValue("serve.requests"),
		Batches:           s.obs.CounterValue("serve.batches"),
		BatchedRequests:   s.obs.CounterValue("serve.batched_requests"),
		RejectedQueueFull: s.obs.CounterValue("serve.rejected_queue_full"),
		DeadlineExceeded:  s.obs.CounterValue("serve.deadline_exceeded"),
		MaxEstPeakBytes:   func() int64 { v, _ := s.obs.GaugeValue("serve.max_est_peak_bytes"); return v }(),
	}
}
