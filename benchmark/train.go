package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/store"
	"betty/internal/tensor"
)

// programSeed is the CLIs' default -seed: weights, sampler and partitioner
// of every workload derive from it, never from the benchmark's -seed.
const programSeed = 1

var fanouts = []int{10, 25}

// trainEnv is one built training workload.
type trainEnv struct {
	ds    *dataset.Dataset
	setup *core.Setup
	dev   *device.Device
	// cache and st are the shard cache and its open store, dir the directory
	// holding the packed file (out-of-core only).
	cache *store.Cache
	st    *store.Store
	dir   string
}

// close releases the store and deletes its file, so a finished build leaves
// no dirty pages to be written back under the next window.
func (e *trainEnv) close() {
	if e.st != nil {
		e.st.Close()
		os.RemoveAll(e.dir)
	}
}

// buildTrain generates the dataset, orders its training seeds from the
// benchmark seed, and assembles the engine the way bettytrain does with no
// BETTY_* variable set. dir receives the packed store and macrobatch file of
// an out-of-core workload; inRAM builds the same model over the resident
// matrix instead (the reference an out-of-core run must equal). reg, when
// non-nil, receives the store's counters only.
func buildTrain(w *workload, z sizing, seed uint64, dir string, inRAM bool, reg *obs.Registry) (*trainEnv, error) {
	ts := w.Train
	ds, err := dataset.LoadScaled(ts.Dataset, z.Scale)
	if err != nil {
		return nil, err
	}
	ds.TrainIdx = trainOrder(seed, ds.TrainIdx)
	env := &trainEnv{ds: ds, dir: dir}
	if ts.OutOfCore && !inRAM {
		path := filepath.Join(dir, w.Name+".store")
		if err := store.Pack(path, ds, store.PackConfig{ShardRows: z.ShardRows}); err != nil {
			return nil, err
		}
		if env.st, err = store.Open(path); err != nil {
			return nil, err
		}
		budget := max(env.st.FeatureBytes()/10, env.st.MaxShardBytes())
		if env.cache, err = store.NewCache(env.st, budget, reg); err != nil {
			env.close()
			return nil, err
		}
		if env.ds, err = env.st.Dataset(env.cache); err != nil {
			env.close()
			return nil, err
		}
	}
	env.dev = device.New(ts.Capacity, device.DefaultCostModel())
	env.setup, err = core.BuildSAGE(env.ds, core.Options{
		Fanouts: fanouts,
		Seed:    programSeed,
		FixedK:  ts.FixedK,
		Device:  env.dev,
	})
	if err != nil {
		env.close()
		return nil, err
	}
	if env.setup.Runner.Emb, err = defaultEmbCache(); err != nil {
		env.close()
		return nil, err
	}
	if ts.OutOfCore && !inRAM {
		eng := env.setup.Engine
		eng.Frontiers = store.NewMacroCache(filepath.Join(dir, w.Name+".macro"), eng.Sampler.ConfigKey(), reg)
	}
	return env, nil
}

// defaultEmbCache is the embedding cache bettytrain installs when
// BETTY_EMBCACHE is unset: whatever mode the empty string parses to, 64 MiB,
// lag 1. A later change of that default is measured without editing this.
func defaultEmbCache() (*embcache.Cache, error) {
	mode, err := embcache.ParseMode("")
	if err != nil || mode == embcache.ModeOff {
		return nil, err
	}
	return embcache.New(embcache.Config{Mode: mode, BudgetBytes: 64 * device.MiB, MaxLag: 1})
}

// epochRecord is what one epoch leaves behind, whoever drove it.
type epochRecord struct {
	Loss       float64
	Peak       int64
	Sim        float64
	K          int
	Attempts   int
	MaxEst     int64
	InputNodes int
	FullInput  int
	Ms         float64
}

func recordOf(st core.EpochStats, ms float64) epochRecord {
	return epochRecord{
		Loss: st.Loss, Peak: st.PeakBytes, Sim: st.TransferSeconds + st.ComputeSeconds,
		K: st.K, Attempts: st.PlanAttempts, MaxEst: st.MaxEstimate,
		InputNodes: st.InputNodes, FullInput: st.InputNodes - st.Redundancy, Ms: ms,
	}
}

// engineEpochs runs n epochs through the engine, timing each call. It stops
// at the first failed epoch.
func engineEpochs(env *trainEnv, n int) ([]epochRecord, error) {
	out := make([]epochRecord, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, err := env.setup.Engine.TrainEpochMicro()
		ms := msSince(t0)
		if err != nil {
			return out, fmt.Errorf("epoch %d: %w", i, err)
		}
		out = append(out, recordOf(st, ms))
	}
	return out, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// setUpTrain builds the workload `setups` times (once in smoke runs),
// warming each up, and returns the last build, its warm-up epochs and every
// set-up time in seconds.
func setUpTrain(w *workload, z sizing, opt runOpts, reg *obs.Registry) (*trainEnv, []epochRecord, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		dir, err := opt.scratch(fmt.Sprintf("%s-setup%d", w.Name, i))
		if err != nil {
			return nil, nil, nil, err
		}
		env, err := buildTrain(w, z, opt.Seed, dir, false, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		warm, err := engineEpochs(env, z.Warm)
		if err != nil {
			env.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, msSince(t0)/1e3)
		if i == opt.Setups-1 {
			return env, warm, times, nil
		}
		env.close()
	}
}

// runTrain is the untraced pass of a training workload.
func runTrain(w *workload, opt runOpts) (*result, error) {
	z := opt.sizing(w)
	res := newResult(w, opt)
	env, warm, setupTimes, err := setUpTrain(w, z, opt, nil)
	if err != nil {
		return nil, err
	}
	defer env.close()

	n := z.ops(opt.Seconds)
	settle()
	t0 := time.Now()
	recs, runErr := engineEpochs(env, n)
	wallS := msSince(t0) / 1e3
	held, heap := heapMB()

	res.Attempted, res.Failed = n, n-len(recs)
	if runErr != nil {
		res.check("epochs complete", false, runErr.Error())
		return res, nil
	}
	ms, losses := make([]float64, n), make([]float64, n)
	var peak int64
	for i, r := range recs {
		ms[i], losses[i] = r.Ms, r.Loss
		peak = max(peak, r.Peak)
	}
	last := recs[n-1]
	res.timing("setup_s", setupTimes, median(setupTimes))
	res.latency(ms)
	res.set("ops_per_s", float64(n)/wallS)
	res.set("peak_device_bytes", float64(peak))
	res.set("live_heap_mb", heap)
	res.set("loss", sum(losses)/float64(n))
	res.note("K=%d, %d planner attempts, simulated epoch %.6f s, largest estimate %d B, final loss %.6f, heap %.1f MB with pooled scratch",
		last.K, last.Attempts, last.Sim, last.MaxEst, last.Loss, held)

	checkLosses(res, warm, recs)
	if w.Train.Capacity != neverBinds {
		res.check("ledger peak within device capacity", peak <= w.Train.Capacity,
			fmt.Sprintf("%d B of %d B", peak, w.Train.Capacity))
	}
	if w.Train.OutOfCore {
		if err := checkOutOfCore(res, w, z, opt, env, warm); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkLosses requires every loss finite and the last measured one well
// below the first warm-up one: the model must actually have trained.
func checkLosses(res *result, warm, recs []epochRecord) {
	finite := true
	for _, r := range append(append([]epochRecord(nil), warm...), recs...) {
		if math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0) {
			finite = false
		}
	}
	res.check("losses finite", finite, "")
	if res.Smoke {
		return // a couple of epochs on a toy graph need not converge
	}
	first, last := warm[0].Loss, recs[len(recs)-1].Loss
	res.check("final loss below 0.8 x first loss", last < 0.8*first, fmt.Sprintf("%.6f vs %.6f", last, first))
}

// checkOutOfCore compares the disk-backed run's warm-up losses bitwise with
// an in-RAM run of the same model on the same inputs, and the shard cache's
// high-water mark with its budget.
func checkOutOfCore(res *result, w *workload, z sizing, opt runOpts, env *trainEnv, warm []epochRecord) error {
	ram, err := buildTrain(w, z, opt.Seed, "", true, nil)
	if err != nil {
		return err
	}
	ref, err := engineEpochs(ram, len(warm))
	if err != nil {
		return fmt.Errorf("in-RAM reference: %w", err)
	}
	same := true
	for i := range warm {
		if math.Float64bits(ref[i].Loss) != math.Float64bits(warm[i].Loss) {
			same = false
		}
	}
	res.check("out-of-core losses equal in-RAM losses bitwise", same, fmt.Sprintf("first %d epochs", len(warm)))
	res.check("store peak resident within budget", env.cache.PeakBytes() <= env.cache.Budget(),
		fmt.Sprintf("%d B of %d B", env.cache.PeakBytes(), env.cache.Budget()))
	return nil
}

// Span names of the training replay. The grouping spans only bracket the
// layer calls beneath them.
const (
	spanEpoch = "epoch"
	spanPlan  = "plan"
	spanMicro = "micro"
)

var trainGroups = map[string]bool{spanPlan: true, spanMicro: true}

// replayer drives a second, identically-seeded setup through the public
// layer functions in Engine.TrainEpochMicroSeeds' order, with a span around
// each call. Probes — a standalone REG build per attempted K, and a feature
// gather plus a forward-only pass per micro-batch — split the two calls
// (PartitionBatch, RunMicroBatch) that span more than one layer.
type replayer struct {
	env *trainEnv
	tr  *tracer
	// gatherBuf backs the gather probe's output across micro-batches.
	gatherBuf []float32
	// regEdges and layer0 are read off the last replayed epoch.
	regEdges int
	layer0   [2]int
}

// candidate is one evaluated partition count.
type candidate struct {
	micro   [][]*graph.Block
	maxPeak int64
}

func (rp *replayer) epoch(idx int) (epochRecord, int, error) {
	eng, tr := rp.env.setup.Engine, rp.tr
	r, ds := eng.Runner, eng.Runner.Data
	seeds := ds.TrainIdx
	var rec epochRecord
	root := tr.begin(spanEpoch, -1, idx)
	defer tr.end(root)

	// Steps 1-3 of the workflow: the frontier, then the partition count.
	var full []*graph.Block
	if eng.Frontiers != nil {
		id := tr.begin("store.macro_load", root, idx)
		blocks, ok, err := eng.Frontiers.Load(seeds)
		tr.end(id)
		if err != nil {
			return rec, root, err
		}
		if ok {
			full = blocks
		}
	}
	if full == nil {
		id := tr.begin("sample.sample", root, idx)
		blocks, err := eng.Sampler.Sample(ds.Graph, seeds)
		tr.end(id)
		if err != nil {
			return rec, root, err
		}
		full = blocks
		if eng.Frontiers != nil {
			if err := eng.Frontiers.Save(seeds, full); err != nil {
				return rec, root, err
			}
		}
	}
	var plan candidate
	if eng.FixedK > 0 {
		c, err := rp.evaluate(full, eng.FixedK, root, idx)
		if err != nil {
			return rec, root, err
		}
		plan, rec.Attempts = c, 1
	} else {
		for k := 1; ; k++ {
			if k > full[len(full)-1].NumDst {
				return rec, root, memory.ErrCannotFit
			}
			c, err := rp.evaluate(full, k, root, idx)
			if err != nil {
				return rec, root, err
			}
			rec.Attempts++
			if c.maxPeak+int64(float64(c.maxPeak)*eng.SafetyMargin) <= rp.env.dev.Capacity() {
				plan = c
				break
			}
		}
	}
	rec.K, rec.MaxEst = len(plan.micro), plan.maxPeak
	rec.InputNodes, rec.FullInput = graph.TotalInputNodes(plan.micro), full[0].NumSrc
	rp.layer0 = [2]int{plan.micro[0][0].NumDst, ds.FeatureDim()}

	// Step 4: the gradient-accumulating pass, labeled-count loss convention.
	labeled := make([]int, len(plan.micro))
	total := 0
	for i, mb := range plan.micro {
		for _, nid := range mb[len(mb)-1].DstNID {
			if ds.Labels[nid] >= 0 {
				labeled[i]++
			}
		}
		total += labeled[i]
	}
	for i, micro := range plan.micro {
		m := tr.begin(spanMicro, root, idx)
		rp.env.dev.ResetPeak()
		var scale float32
		if total > 0 {
			scale = float32(labeled[i]) / float32(total)
		}
		src := micro[0].SrcNID
		if need := len(src) * ds.FeatureDim(); cap(rp.gatherBuf) < need {
			rp.gatherBuf = make([]float32, need)
		}
		x := tensor.FromSlice(len(src), ds.FeatureDim(), rp.gatherBuf[:len(src)*ds.FeatureDim()])
		p := tr.beginProbe("train.gather", m, idx)
		err := ds.GatherFeaturesInto(x, src)
		tr.end(p)
		if err != nil {
			tr.end(m)
			return rec, root, err
		}
		p = tr.beginProbe("train.measure_forward", m, idx)
		_, err = r.MeasureForward(micro)
		tr.end(p)
		if err != nil {
			tr.end(m)
			return rec, root, err
		}
		id := tr.begin("train.run_micro_batch", m, idx)
		res, err := r.RunMicroBatch(micro, scale)
		tr.end(id)
		tr.end(m)
		if err != nil {
			return rec, root, err
		}
		if total > 0 {
			rec.Loss += res.Loss * float64(labeled[i]) / float64(total)
		}
		rec.Sim += res.TransferSeconds + res.ComputeSeconds
		rec.Peak = max(rec.Peak, res.PeakBytes)
	}
	// Step 5: one optimizer step for the whole batch.
	id := tr.begin("train.step", root, idx)
	r.Step()
	tr.end(id)
	return rec, root, nil
}

// evaluate partitions the batch k ways, slices and estimates every
// micro-batch — what memory.Planner does for one candidate K.
func (rp *replayer) evaluate(full []*graph.Block, k, root, idx int) (candidate, error) {
	eng, tr := rp.env.setup.Engine, rp.tr
	last := full[len(full)-1]
	g := tr.begin(spanPlan, root, idx)
	defer tr.end(g)
	var groups [][]int32
	if k == 1 {
		all := make([]int32, last.NumDst)
		for i := range all {
			all[i] = int32(i)
		}
		groups = [][]int32{all}
	} else {
		p := tr.beginProbe("reg.build", g, idx)
		rg, err := reg.BuildREGFast(last)
		tr.end(p)
		if err != nil {
			return candidate{}, err
		}
		rp.regEdges = len(rg.Adj) / 2
		id := tr.begin("partition.partition_batch", g, idx)
		groups, err = eng.Partitioner.PartitionBatch(last, k)
		tr.end(id)
		if err != nil {
			return candidate{}, err
		}
	}
	var c candidate
	for _, sel := range groups {
		id := tr.begin("graph.slice", g, idx)
		micro, err := graph.SliceBatch(full, sel)
		tr.end(id)
		if err != nil {
			return c, err
		}
		id = tr.begin("memory.estimate", g, idx)
		est, err := memory.Estimate(micro, eng.Spec)
		tr.end(id)
		if err != nil {
			return c, err
		}
		c.micro = append(c.micro, micro)
		c.maxPeak = max(c.maxPeak, est.Peak())
	}
	return c, nil
}

// runTrainTraced is the traced pass: every epoch runs untraced through the
// engine on one setup and is then replayed span by span on its identically
// seeded twin. The two alternate, one at a time, so that drift of the host
// over the run falls on both sides of trace.replay_ratio alike.
func runTrainTraced(w *workload, opt runOpts) (*result, error) {
	z := opt.sizing(w)
	res := newResult(w, opt)
	n := z.TraceOps

	// The engine's store counters give the true per-epoch shard traffic (the
	// replay gathers three times per micro-batch).
	counters := obs.New(obs.RealClock())
	opt.Setups = 1
	env, _, _, err := setUpTrain(w, z, opt, counters)
	if err != nil {
		return nil, err
	}
	defer env.close()
	dir, err := opt.scratch(w.Name + "-replay")
	if err != nil {
		return nil, err
	}
	twin, err := buildTrain(w, z, opt.Seed, dir, false, nil)
	if err != nil {
		return nil, err
	}
	defer twin.close()
	rp := &replayer{env: twin, tr: newTracer()}
	for i := 0; i < z.Warm; i++ {
		if _, _, err := rp.epoch(i - z.Warm); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	before := storeCounters(counters)
	ref := make([]epochRecord, 0, n)
	recs := make([]epochRecord, n)
	roots := make([]int, n)
	for i := range recs {
		settle()
		one, err := engineEpochs(env, 1)
		if err != nil {
			return nil, err
		}
		ref = append(ref, one...)
		settle()
		if recs[i], roots[i], err = rp.epoch(i); err != nil {
			return nil, fmt.Errorf("replay epoch %d: %w", i, err)
		}
	}
	after := storeCounters(counters)
	held, drained := heapMB()
	res.Attempted = n
	if err := rp.tr.writeNDJSON(opt.tracePath(w)); err != nil {
		return nil, err
	}

	same := true
	for i := range recs {
		if math.Float64bits(recs[i].Loss) != math.Float64bits(ref[i].Loss) {
			same = false
		}
	}
	res.check("replayed loss equals engine loss bitwise", same, fmt.Sprintf("%d epochs", n))

	// Per-epoch attribution, then medians over the replayed epochs.
	spans := rp.tr.spans
	self := selfTimes(spans)
	per := map[string][]float64{}
	var wall, traced, refMs, cover, unattributed []float64
	for i, root := range roots {
		a := attribute(spans, self, root, trainGroups)
		for name := range a.Self {
			per[name] = append(per[name], float64(a.Self[name])/1e6)
		}
		wall = append(wall, float64(a.Wall)/1e6)
		traced = append(traced, float64(spans[root].dur())/1e6)
		cover = append(cover, a.coverage())
		unattributed = append(unattributed, float64(a.Unattributed)/1e6)
		refMs = append(refMs, ref[i].Ms)
	}
	med := func(name string) float64 { return median(per[name]) }
	wallMs, refMed := median(wall), median(refMs)
	last := recs[n-1]
	regMs := med("reg.build")
	planMs := med("partition.partition_batch") + med("graph.slice") + med("memory.estimate")
	res.set("sample.sample_ms", med("sample.sample"))
	res.set("sample.input_nodes", float64(last.FullInput))
	res.set("store.macro_load_ms", med("store.macro_load"))
	res.set("reg.build_ms", regMs)
	res.set("reg.edges", float64(rp.regEdges))
	res.set("partition.partition_ms", med("partition.partition_batch")-regMs)
	res.set("partition.redundancy", float64(last.InputNodes)/float64(last.FullInput))
	res.set("graph.slice_ms", med("graph.slice"))
	res.set("memory.estimate_ms", med("memory.estimate"))
	res.set("memory.plan_attempts", float64(last.Attempts))
	res.set("memory.plan_k", float64(last.K))
	res.set("memory.est_error_pct", 100*float64(last.MaxEst-last.Peak)/float64(last.Peak))
	res.set("memory.plan_share", planMs/wallMs)
	res.set("train.gather_ms", med("train.gather"))
	res.set("train.forward_ms", med("train.measure_forward")-med("train.gather"))
	res.set("train.backward_ms", med("train.run_micro_batch")-med("train.measure_forward"))
	res.set("train.step_ms", med("train.step"))
	res.set("device.sim_epoch_s", last.Sim)
	res.set("tensor.pool_retained_mb", held-drained)
	res.set("tensor.matmul_gflops", matmulGflops(rp.layer0[0], rp.layer0[1], twin.setup.Engine.Spec.Model.Hidden))
	epochs := float64(n)
	misses, hits := after.misses-before.misses, after.hits-before.hits
	res.set("store.shard_misses", float64(misses)/epochs)
	res.set("store.loaded_mb", float64(after.loaded-before.loaded)/1e6/epochs)
	if hits+misses > 0 {
		res.set("store.hit_rate", float64(hits)/float64(hits+misses))
	}
	res.set("store.pin_waits", float64(after.waits-before.waits)/epochs)
	res.set("trace.coverage", median(cover))
	res.set("trace.replay_ratio", wallMs/refMed)
	res.set("trace.overhead_pct", 100*(median(traced)-refMed)/refMed)

	trainMs := med("train.run_micro_batch") + med("train.step")
	res.note("replayed epoch %.1f ms (engine %.1f ms): train %.1f%%, plan %.1f%%, gather %.1f%%, sample %.1f%%, unattributed %.3f ms",
		wallMs, refMed, 100*trainMs/wallMs, 100*planMs/wallMs, 100*med("train.gather")/wallMs,
		100*(med("sample.sample")+med("store.macro_load"))/wallMs, median(unattributed))
	res.check("trace coverage at least 0.95", median(cover) >= 0.95, fmt.Sprintf("%.4f", median(cover)))
	if r := wallMs / refMed; r < 0.9 || r > 1.1 {
		// Timing noise, not wrong output: flagged, but it does not fail the run.
		res.note("WARNING: trace.replay_ratio %.3f is outside 0.9-1.1; the layer times above do not describe the engine's epoch", r)
	}
	return res, nil
}

// storeTraffic is a reading of the shard cache's counters.
type storeTraffic struct{ hits, misses, loaded, waits int64 }

func storeCounters(r *obs.Registry) storeTraffic {
	return storeTraffic{
		hits:   r.CounterValue("store.shard_hits"),
		misses: r.CounterValue("store.shard_misses"),
		loaded: r.CounterValue("store.loaded_bytes"),
		waits:  r.CounterValue("store.pin_waits"),
	}
}

// matmulGflops times tensor.MatMul at an (m x k)·(k x n) shape and returns
// the median rate over a few repetitions.
func matmulGflops(m, k, n int) float64 {
	if m == 0 || k == 0 {
		return 0
	}
	a, b := tensor.New(m, k), tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) - 2
	}
	var rates []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		tensor.MatMul(a, b)
		rates = append(rates, 2*float64(m)*float64(k)*float64(n)/(msSince(t0)*1e6))
	}
	return median(rates)
}
