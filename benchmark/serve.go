package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/sample"
	"betty/internal/serve"
)

// checkedRequests is how many measured requests are replayed solo and
// compared bitwise with what the server answered.
const checkedRequests = 50

// serveEnv is one built serving workload: a trained model behind a started
// server, configured the way bettyserve is with no BETTY_* variable set.
type serveEnv struct {
	spec  *serveSpec
	ds    *dataset.Dataset
	model any
	cfg   serve.Config
	srv   *serve.Server
	reg   *obs.Registry
}

func buildServe(w *workload, z sizing) (*serveEnv, error) {
	ds, err := dataset.LoadScaled(w.Serve.Dataset, z.Scale)
	if err != nil {
		return nil, err
	}
	setup, err := core.BuildSAGE(ds, core.Options{Fanouts: fanouts, Seed: programSeed})
	if err != nil {
		return nil, err
	}
	seeds := ds.TrainIdx[:min(w.Serve.TrainSeeds, len(ds.TrainIdx))]
	for e := 0; e < w.Serve.TrainEpochs; e++ {
		if _, err := setup.Engine.TrainEpochMicroSeeds(seeds); err != nil {
			return nil, fmt.Errorf("training epoch %d: %w", e, err)
		}
	}
	// bettyserve always serves with a registry (it backs /metricsz) and
	// leaves span recording off unless -trace is given.
	env := &serveEnv{spec: w.Serve, ds: ds, model: setup.Model, reg: obs.New(obs.RealClock())}
	env.cfg = serve.Defaults()
	env.cfg.Fanouts = fanouts
	env.cfg.Seed = programSeed
	env.cfg.Obs = env.reg
	if env.srv, err = serve.New(ds, setup.Model, env.cfg); err != nil {
		return nil, err
	}
	env.srv.Start()
	return env, nil
}

// window is the outcome of one closed-loop pass over a slice of the trace.
type window struct {
	// LatMs holds the latency of every successful request.
	LatMs  []float64
	Failed int
	WallS  float64
	// Loss is the mean cross-entropy of the served scores against the
	// dataset's labels; Malformed counts responses of the wrong shape or
	// with a non-finite score.
	Loss      float64
	Malformed int
	// Kept holds the responses of the requests whose index was in keep.
	Kept map[int][][]float32
}

// closedLoop issues trace[lo:hi] from the workload's clients, each of which
// waits for a reply before sending its next request, with no think time.
// When tr is non-nil every call is recorded as a root span whose trace id is
// the request index.
func closedLoop(env *serveEnv, trace [][]int32, seed uint64, lo, hi int, keep map[int]bool, tr *tracer) window {
	sched := clientSchedule(seed, lo, hi, env.spec.Clients)
	type tally struct {
		lat         []float64
		failed, bad int
		lossSum     float64
		lossN       int
		kept        map[int][][]float32
	}
	tallies := make([]tally, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range sched {
		wg.Add(1)
		go func(tl *tally, mine []int) {
			defer wg.Done()
			tl.kept = map[int][][]float32{}
			for _, idx := range mine {
				nodes := trace[idx]
				span := -1
				if tr != nil {
					span = tr.begin("serve.predict", -1, idx)
				}
				t := time.Now()
				scores, err := env.srv.Predict(nodes, -1)
				ms := msSince(t)
				if tr != nil {
					tr.end(span)
				}
				if err != nil {
					tl.failed++
					continue
				}
				tl.lat = append(tl.lat, ms)
				if loss, ok := crossEntropy(scores, nodes, env.ds); ok {
					tl.lossSum += loss
					tl.lossN += len(nodes)
				} else {
					tl.bad++
				}
				if keep[idx] {
					tl.kept[idx] = scores
				}
			}
		}(&tallies[c], sched[c])
	}
	wg.Wait()
	out := window{WallS: msSince(t0) / 1e3, Kept: map[int][][]float32{}}
	lossSum, lossN := 0.0, 0
	// Client order, so the float sum does not depend on who finished first.
	for _, tl := range tallies {
		out.LatMs = append(out.LatMs, tl.lat...)
		out.Failed += tl.failed
		out.Malformed += tl.bad
		lossSum += tl.lossSum
		lossN += tl.lossN
		for idx, s := range tl.kept {
			out.Kept[idx] = s
		}
	}
	if lossN > 0 {
		out.Loss = lossSum / float64(lossN)
	}
	return out
}

// crossEntropy sums -log softmax(scores[i])[label] over a response's rows.
// ok is false unless the response has one finite row of NumClasses scores
// per requested node.
func crossEntropy(scores [][]float32, nodes []int32, ds *dataset.Dataset) (total float64, ok bool) {
	if len(scores) != len(nodes) {
		return 0, false
	}
	for i, row := range scores {
		if len(row) != ds.NumClasses {
			return 0, false
		}
		hi := math.Inf(-1)
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0, false
			}
			hi = math.Max(hi, float64(v))
		}
		z := 0.0
		for _, v := range row {
			z += math.Exp(float64(v) - hi)
		}
		if label := ds.Labels[nodes[i]]; label >= 0 {
			total += hi + math.Log(z) - float64(row[label])
		}
	}
	return total, true
}

// soloist scores one request at a time outside the server, through the same
// public layer functions Server.scoreUnion calls, in its order: node-wise
// sample, forward-peak plan, feature gather, batch inference.
type soloist struct {
	env     *serveEnv
	sampler *sample.NodeWise
	spec    memory.Spec
	tr      *tracer
	// layer0 is the (rows, width) of the first scored request's layer-0
	// matmul input.
	layer0 [2]int
}

func newSoloist(env *serveEnv, tr *tracer) (*soloist, error) {
	spec, err := memory.SpecForInference(env.model)
	if err != nil {
		return nil, err
	}
	return &soloist{env: env, sampler: sample.NewNodeWise(env.cfg.Fanouts, env.cfg.Seed), spec: spec, tr: tr}, nil
}

// score returns one score row per entry of nodes.
func (s *soloist) score(nodes []int32, idx int) ([][]float32, error) {
	env, tr := s.env, s.tr
	root := tr.begin("serve.solo", -1, idx)
	defer tr.end(root)
	// The server scores the deduplicated union, in first-occurrence order.
	index := make(map[int32]int, len(nodes))
	var union []int32
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			index[v] = len(union)
			union = append(union, v)
		}
	}
	id := tr.begin("sample.nodewise", root, idx)
	blocks, err := s.sampler.Sample(env.ds.Graph, union)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	pl := &memory.Planner{
		Capacity:     env.cfg.CapacityBytes,
		Partitioner:  reg.BettyBatch{Seed: env.cfg.Seed ^ 0xb7},
		Spec:         s.spec,
		MaxK:         env.cfg.MaxK,
		SafetyMargin: env.cfg.SafetyMargin,
		Peak:         memory.Breakdown.ForwardPeak,
	}
	id = tr.begin("memory.serve_plan", root, idx)
	plan, err := pl.Plan(blocks)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if s.layer0[0] == 0 {
		s.layer0 = [2]int{plan.Micro[0][0].NumDst, env.ds.FeatureDim()}
	}
	union2 := make([][]float32, len(union))
	for gi, micro := range plan.Micro {
		id = tr.begin("dataset.gather", root, idx)
		feats, err := env.ds.GatherFeatures(micro[0].SrcNID)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("core.forward", root, idx)
		logits, err := core.BatchInference(env.model, micro, feats)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for ri, pos := range plan.Groups[gi] {
			union2[pos] = append([]float32(nil), logits.Row(ri)...)
		}
	}
	out := make([][]float32, len(nodes))
	for i, v := range nodes {
		out[i] = union2[index[v]]
	}
	return out, nil
}

// sameScores reports bitwise equality of two responses.
func sameScores(a, b [][]float32) bool {
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

// checkSolo replays the kept requests solo and compares bitwise.
func checkSolo(res *result, solo *soloist, trace [][]int32, kept map[int][][]float32) error {
	same := 0
	for idx, served := range kept {
		scores, err := solo.score(trace[idx], idx)
		if err != nil {
			return fmt.Errorf("solo replay of request %d: %w", idx, err)
		}
		if sameScores(scores, served) {
			same++
		}
	}
	res.check("served scores equal solo inference bitwise", same == len(kept) && same > 0,
		fmt.Sprintf("%d of %d sampled requests", same, len(kept)))
	return nil
}

// keepSet spreads up to checkedRequests indices evenly over lo..hi-1.
func keepSet(lo, hi int) map[int]bool {
	keep := map[int]bool{}
	step := max(1, (hi-lo)/checkedRequests)
	for i := lo; i < hi && len(keep) < checkedRequests; i += step {
		keep[i] = true
	}
	return keep
}

// setUpServe builds, starts and warms the server opt.Setups times, keeping
// the last. The trace covers the warm-up and `more` further requests.
func setUpServe(w *workload, z sizing, opt runOpts, more int) (*serveEnv, [][]int32, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		env, err := buildServe(w, z)
		if err != nil {
			return nil, nil, nil, err
		}
		trace := requestTrace(opt.Seed, z.Warm+more, w.Serve.NodesPerRequest, int(env.ds.Graph.NumNodes()), w.Serve.Skew)
		warm := closedLoop(env, trace, opt.Seed, 0, z.Warm, nil, nil)
		if warm.Failed > 0 {
			env.srv.Close()
			return nil, nil, nil, fmt.Errorf("%d of %d warm-up requests failed", warm.Failed, z.Warm)
		}
		times = append(times, msSince(t0)/1e3)
		if i == opt.Setups-1 {
			return env, trace, times, nil
		}
		env.srv.Close()
	}
}

// runServe is the untraced pass of a serving workload.
func runServe(w *workload, opt runOpts) (*result, error) {
	z := opt.sizing(w)
	res := newResult(w, opt)
	n := z.ops(opt.Seconds)
	env, trace, setupTimes, err := setUpServe(w, z, opt, n)
	if err != nil {
		return nil, err
	}
	lo, hi := z.Warm, z.Warm+n
	settle()
	win := closedLoop(env, trace, opt.Seed, lo, hi, keepSet(lo, hi), nil)
	held, heap := heapMB()
	peak, _ := env.reg.GaugeValue("serve.cache_ledger_peak_bytes")
	env.srv.Close()

	res.Attempted, res.Failed = n, win.Failed
	res.timing("setup_s", setupTimes, median(setupTimes))
	res.latency(win.LatMs)
	res.set("ops_per_s", float64(len(win.LatMs))/win.WallS)
	res.set("peak_device_bytes", float64(peak))
	res.set("live_heap_mb", heap)
	res.set("loss", win.Loss)
	st := env.srv.StatsSnapshot()
	res.note("%d batches for %d requests, feature cache %d hits / %d misses, embcache %d hits / %d misses, heap %.1f MB with pooled scratch",
		st.Batches, st.BatchedRequests, st.CacheHits, st.CacheMisses, st.EmbHits, st.EmbMisses, held)

	res.check("every response has one finite row per node", win.Malformed == 0, fmt.Sprintf("%d malformed", win.Malformed))
	solo, err := newSoloist(env, newTracer())
	if err != nil {
		return nil, err
	}
	if err := checkSolo(res, solo, trace, win.Kept); err != nil {
		return nil, err
	}
	return res, nil
}

// serveCounters is a reading of the server's registry.
type serveCounters struct {
	stats                    serve.Stats
	served, layer1, computed int64
	waitSum, waitN           int64
}

func readServeCounters(env *serveEnv) serveCounters {
	h := env.reg.HistogramWith("serve.queue_wait_ns", obs.BoundsFor("serve.queue_wait_ns"))
	return serveCounters{
		stats:    env.srv.StatsSnapshot(),
		served:   env.reg.CounterValue("serve.served_nodes"),
		layer1:   env.reg.CounterValue("serve.layer1_dst_rows"),
		computed: env.reg.CounterValue("embcache.computed_rows"),
		waitSum:  h.Sum(),
		waitN:    h.Count(),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runServeTraced is the traced pass: one untraced window for reference, one
// window with a span per call and the program's counters read around it,
// then the second window's requests replayed solo, layer by layer.
func runServeTraced(w *workload, opt runOpts) (*result, error) {
	z := opt.sizing(w)
	res := newResult(w, opt)
	n := z.TraceOps
	opt.Setups = 1
	env, trace, _, err := setUpServe(w, z, opt, 2*n)
	if err != nil {
		return nil, err
	}
	settle()
	ref := closedLoop(env, trace, opt.Seed, z.Warm, z.Warm+n, nil, nil)

	tr := newTracer()
	lo, hi := z.Warm+n, z.Warm+2*n
	before := readServeCounters(env)
	settle()
	win := closedLoop(env, trace, opt.Seed, lo, hi, keepSet(lo, hi), tr)
	after := readServeCounters(env)
	held, drained := heapMB()
	env.srv.Close()
	res.Attempted, res.Failed = 2*n, ref.Failed+win.Failed

	// Solo replay of the traced window, one request at a time.
	solo, err := newSoloist(env, tr)
	if err != nil {
		return nil, err
	}
	settle()
	first := len(tr.spans)
	same := 0
	for idx := lo; idx < hi; idx++ {
		scores, err := solo.score(trace[idx], idx)
		if err != nil {
			return nil, fmt.Errorf("solo replay of request %d: %w", idx, err)
		}
		if served, ok := win.Kept[idx]; ok && sameScores(scores, served) {
			same++
		}
	}
	if err := tr.writeNDJSON(opt.tracePath(w)); err != nil {
		return nil, err
	}
	res.check("served scores equal solo inference bitwise", same == len(win.Kept) && same > 0,
		fmt.Sprintf("%d of %d sampled requests", same, len(win.Kept)))
	res.check("every response has one finite row per node", win.Malformed+ref.Malformed == 0, "")

	spans := tr.spans
	self := selfTimes(spans)
	per := map[string][]float64{}
	var soloMs, cover []float64
	for _, s := range spans[first:] {
		if s.Parent != -1 {
			continue
		}
		a := attribute(spans, self, s.ID, nil)
		for name, ns := range a.Self {
			per[name] = append(per[name], float64(ns)/1e6)
		}
		soloMs = append(soloMs, float64(a.Wall)/1e6)
		cover = append(cover, a.coverage())
	}
	sorted := sortedCopy(win.LatMs)
	p50, refP50 := percentile(sorted, 0.5), median(ref.LatMs)
	res.set("sample.nodewise_ms", median(per["sample.nodewise"]))
	res.set("memory.serve_plan_ms", median(per["memory.serve_plan"]))
	res.set("dataset.gather_ms", median(per["dataset.gather"]))
	res.set("core.forward_ms", median(per["core.forward"]))
	res.set("serve.solo_ms", median(soloMs))
	res.set("serve.overhead_ms", p50-median(soloMs))
	res.set("serve.queue_wait_mean_ms", ratio(after.waitSum-before.waitSum, after.waitN-before.waitN)/1e6)
	a, b := after.stats, before.stats
	res.set("serve.requests_per_batch", ratio(a.BatchedRequests-b.BatchedRequests, a.Batches-b.Batches))
	res.set("serve.dedup_ratio", ratio(after.served-before.served, int64(n*w.Serve.NodesPerRequest)))
	if beyond(len(sorted), 0.99) >= minBeyond {
		res.set("serve.latency_p99_ms", percentile(sorted, 0.99))
	}
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	res.set("serve.feature_cache_hit_rate", ratio(hits, hits+misses))
	embHits, embMisses := a.EmbHits-b.EmbHits, a.EmbMisses-b.EmbMisses
	res.set("embcache.hit_rate", ratio(embHits, embHits+embMisses))
	res.set("embcache.computed_rows_per_req", ratio(after.computed-before.computed, int64(n)))
	res.set("serve.layer1_rows_per_req", ratio(after.layer1-before.layer1, int64(n)))
	res.set("tensor.pool_retained_mb", held-drained)
	res.set("tensor.matmul_gflops", matmulGflops(solo.layer0[0], solo.layer0[1], solo.spec.Model.Hidden))
	res.set("trace.coverage", median(cover))
	res.set("trace.replay_ratio", median(soloMs)/p50)
	res.set("trace.overhead_pct", 100*(p50-refP50)/refP50)
	res.note("served p50 %.3f ms (unspanned window %.3f ms) = solo %.3f ms + overhead %.3f ms; solo: sample %.3f, plan %.3f, gather %.3f, forward %.3f ms",
		p50, refP50, median(soloMs), p50-median(soloMs), median(per["sample.nodewise"]),
		median(per["memory.serve_plan"]), median(per["dataset.gather"]), median(per["core.forward"]))
	res.check("trace coverage at least 0.95", median(cover) >= 0.95, fmt.Sprintf("%.4f", median(cover)))
	return res, nil
}
