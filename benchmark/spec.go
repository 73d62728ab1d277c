package main

import "math"

// runSeconds is BENCHMARK.json's run_seconds: the measured window the
// default operation counts are sized for on a 2-core host. Counts, not
// durations, are what a run fixes — see sizing.ops.
const runSeconds = 14

// defaultSeed is the seed runs use unless -seed says otherwise. The README
// reserves a second one for confirming later claims on held-out inputs.
const defaultSeed = 1

// setups is how many times a run builds its workload from scratch; setup_s
// is their median, and the last one is the one measured on.
const setups = 3

type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of the system sees, on every workload. An
// operation is one Engine.TrainEpochMicro on train_* and one Server.Predict
// on serve_*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_device_bytes", "B", "lower", 0.20},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"loss", "loss", "lower", 0.05},
}

// perLayer is what the traced pass reports. A metric whose layer a workload
// never enters reads 0 there.
var perLayer = []metricDef{
	{Name: "sample.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.input_nodes", Unit: "count", Better: "lower"},
	{Name: "store.macro_load_ms", Unit: "ms", Better: "lower"},
	{Name: "reg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "reg.edges", Unit: "count", Better: "lower"},
	{Name: "partition.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.redundancy", Unit: "ratio", Better: "lower"},
	{Name: "graph.slice_ms", Unit: "ms", Better: "lower"},
	{Name: "memory.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "memory.plan_attempts", Unit: "count", Better: "lower"},
	{Name: "memory.plan_k", Unit: "count", Better: "lower"},
	{Name: "memory.est_error_pct", Unit: "%", Better: "lower"},
	{Name: "memory.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "train.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "train.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "train.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "train.step_ms", Unit: "ms", Better: "lower"},
	{Name: "device.sim_epoch_s", Unit: "s", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.pool_retained_mb", Unit: "MB", Better: "lower"},
	{Name: "store.shard_misses", Unit: "count", Better: "lower"},
	{Name: "store.loaded_mb", Unit: "MB", Better: "lower"},
	{Name: "store.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "store.pin_waits", Unit: "count", Better: "lower"},
	{Name: "sample.nodewise_ms", Unit: "ms", Better: "lower"},
	{Name: "memory.serve_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.solo_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.requests_per_batch", Unit: "count", Better: "higher"},
	{Name: "serve.dedup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.feature_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "embcache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "embcache.computed_rows_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.layer1_rows_per_req", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.replay_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// sizing fixes how much work one run does. Ops is the count at -seconds =
// runSeconds; Warm operations precede every window and are discarded.
type sizing struct {
	// Scale shrinks the registered dataset (1 = as registered).
	Scale float64
	// Warm, Ops and TraceOps count operations: warm-up, the measured window
	// of the untraced pass, and each window of the traced pass.
	Warm, Ops, TraceOps int
	// MinOps is the floor -seconds cannot push Ops below.
	MinOps int
	// ShardRows is the packed store's shard height (out-of-core only).
	ShardRows int
}

// ops scales the measured count to the -seconds a run was given: a fixed
// function of the flag, never of the clock, so two runs with the same flags
// do the same work.
func (z sizing) ops(seconds float64) int {
	return max(1, z.MinOps, int(math.Round(float64(z.Ops)*seconds/runSeconds)))
}

type workload struct {
	Name, Why string
	Full      sizing
	// Smoke is the tiny sizing `-smoke` and the tests run.
	Smoke sizing
	Train *trainSpec
	Serve *serveSpec
}

// trainSpec configures a training workload: GraphSAGE-mean, 2 layers, hidden
// 64, fanouts [10,25], every program seed at the CLIs' default.
type trainSpec struct {
	Dataset string
	// FixedK forces the micro-batch count; 0 runs the memory-aware planner.
	FixedK int
	// Capacity is the simulated device's memory in bytes.
	Capacity int64
	// OutOfCore packs the dataset and serves features from the shard cache
	// at a tenth of their size, with macrobatch reuse installed.
	OutOfCore bool
}

// serveSpec configures a serving workload: the same model after TrainEpochs
// epochs, serve.Defaults(), Clients closed-loop callers with no think time.
type serveSpec struct {
	Dataset string
	// TrainEpochs epochs over the first TrainSeeds training nodes precede
	// serving: enough for class-dependent scores, short enough to repeat.
	TrainEpochs, TrainSeeds int
	Clients                 int
	// NodesPerRequest node ids per request, drawn with Skew (see requestTrace).
	NodesPerRequest int
	Skew            float64
}

// neverBinds is a device capacity no workload here approaches.
const neverBinds = 64 << 30

// plannedCapacity makes train_planned's planner stop at K=4 for every seed
// order: over 14 orders the largest K=4 estimate was 17.71 MiB and the
// smallest K=3 estimate 19.83 MiB, so 18.75 MiB sits 5.5 % from either. At
// the 12 MiB the issue proposed (K=8) neighbouring estimates are 6 % apart
// and move 3 % with the order, so K, and the epoch time with it, flipped
// between seeds.
const plannedCapacity = 18<<20 + 768<<10

var workloads = []workload{
	{
		Name:  "train_compute",
		Why:   "Fixed K=8 on ogbn-products: micro-batch forward/backward (train, nn, tensor) is most of the epoch, REG+partition a few percent, so kernel changes show and partitioner changes do not.",
		Full:  sizing{Scale: 1, Warm: 2, Ops: 20, TraceOps: 6, MinOps: 14},
		Smoke: sizing{Scale: 0.03, Warm: 1, Ops: 2, TraceOps: 2},
		Train: &trainSpec{Dataset: "ogbn-products", FixedK: 8, Capacity: neverBinds},
	},
	{
		Name:  "train_planned",
		Why:   "Planner searches K=1..4 under an 18.75 MiB device every epoch on ogbn-arxiv/4: REG rebuilds, partitioning, slicing and estimation dominate, kernels barely register.",
		Full:  sizing{Scale: 0.25, Warm: 2, Ops: 18, TraceOps: 6, MinOps: 14},
		Smoke: sizing{Scale: 0.02, Warm: 1, Ops: 2, TraceOps: 2},
		Train: &trainSpec{Dataset: "ogbn-arxiv", Capacity: plannedCapacity},
	},
	{
		Name:  "train_outofcore",
		Why:   "pubmed features gathered from a packed store through a shard cache a tenth their size, sampling skipped by macrobatch reuse: shard load+CRC+pin/evict is the epoch, so store regressions cannot hide.",
		Full:  sizing{Scale: 1, Warm: 3, Ops: 50, TraceOps: 10, MinOps: 14, ShardRows: 512},
		Smoke: sizing{Scale: 0.05, Warm: 3, Ops: 2, TraceOps: 2, ShardRows: 128},
		Train: &trainSpec{Dataset: "pubmed", FixedK: 8, Capacity: neverBinds, OutOfCore: true},
	},
	{
		Name:  "serve_hot",
		Why:   "Closed loop, 2 clients, no think time, 8 nodes/request drawn with skew 3 on ogbn-arxiv: the layer-1 frontier recurs, so the feature cache and embcache are exercised.",
		Full:  sizing{Scale: 1, Warm: 500, Ops: 4200, TraceOps: 1000, MinOps: 4000},
		Smoke: sizing{Scale: 0.02, Warm: 10, Ops: 40, TraceOps: 30},
		Serve: &serveSpec{Dataset: "ogbn-arxiv", TrainEpochs: 3, TrainSeeds: 5400, Clients: 2, NodesPerRequest: 8, Skew: 3},
	},
	{
		Name:  "serve_uniform",
		Why:   "Closed loop, 2 clients, no think time, 8 nodes/request drawn uniformly: the working set is 10x the feature cache, every cache misses; the bypassed twin of serve_hot.",
		Full:  sizing{Scale: 1, Warm: 500, Ops: 4000, TraceOps: 1000, MinOps: 4000},
		Smoke: sizing{Scale: 0.02, Warm: 10, Ops: 40, TraceOps: 30},
		Serve: &serveSpec{Dataset: "ogbn-arxiv", TrainEpochs: 3, TrainSeeds: 5400, Clients: 2, NodesPerRequest: 8, Skew: 1},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
