// Package core is Betty's public engine: it ties together neighbor
// sampling, REG-based batch partitioning, memory-aware planning, and
// gradient-accumulating micro-batch training (Figure 5's workflow).
//
// One training epoch proceeds as the paper describes:
//
//  1. sample the full batch (every training node) into a hierarchical
//     bipartite block list;
//  2. choose the partition count K — either fixed, or by the memory-aware
//     planner that estimates each candidate micro-batch without running it;
//  3. slice the full batch into K micro-batch block lists (the
//     block-dataloader step, preserving raw-graph index mappings);
//  4. run forward/backward per micro-batch with the loss scaled by its
//     share of outputs, accumulating gradients;
//  5. apply one optimizer step for the whole batch — mathematically
//     equivalent to full-batch training.
package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/obs"
	"betty/internal/reg"
	"betty/internal/sample"
	"betty/internal/tensor"
	"betty/internal/train"
)

// Engine runs Betty training for one model/dataset pair.
type Engine struct {
	Runner      *train.Runner
	Sampler     *sample.Sampler
	Partitioner reg.BatchPartitioner
	Spec        memory.Spec

	// FixedK forces a partition count; 0 selects the memory-aware planner.
	FixedK int
	// SafetyMargin is forwarded to the planner (see memory.Planner).
	SafetyMargin float64
	// Obs, when non-nil, receives spans and metrics from the engine, the
	// planner it builds, and — when installed with SetObs — the runner,
	// sampler, and REG partitioner too.
	Obs *obs.Registry
	// Frontiers, when non-nil, persists sampled macrobatches and reuses
	// them across epochs (BatchGNN-style): PlanEpoch loads the frontier
	// for its seed set instead of resampling when one is available. The
	// sampler's streams depend only on (seed, seeds, layer), so reuse is
	// bitwise identical to resampling — the macro.reuse / macro.resample
	// counters record which path each epoch took.
	Frontiers FrontierCache

	// stage holds an out-of-core evaluation chunk's input frontier.
	stage dataset.Stage
}

// FrontierCache persists sampled full-batch frontiers across epochs (and
// runs). store.MacroCache is the on-disk implementation.
type FrontierCache interface {
	// Load returns the persisted frontier for seeds; ok=false means none
	// has been saved yet. A frontier persisted under a different sampler
	// configuration or seed set must be an error, never a silent miss.
	Load(seeds []int32) (blocks []*graph.Block, ok bool, err error)
	// Save persists the frontier sampled for seeds.
	Save(seeds []int32, blocks []*graph.Block) error
}

// SetObs installs one registry on the engine (eval spans) and every
// collaborator it owns: the runner (h2d/forward/backward/step spans), the sampler
// (sample spans), the planner built per epoch (partition/estimate spans),
// and — when the partitioner is the REG one — its reg_build span.
func (e *Engine) SetObs(r *obs.Registry) {
	e.Obs = r
	if e.Runner != nil {
		e.Runner.Obs = r
	}
	if e.Sampler != nil {
		e.Sampler.Obs = r
	}
	if bb, ok := e.Partitioner.(reg.BettyBatch); ok {
		bb.Obs = r
		e.Partitioner = bb
	}
}

// New assembles an engine with Betty's defaults (REG partitioning,
// memory-aware K selection).
func New(r *train.Runner, s *sample.Sampler, spec memory.Spec, seed uint64) *Engine {
	return &Engine{
		Runner:      r,
		Sampler:     s,
		Partitioner: reg.BettyBatch{Seed: seed},
		Spec:        spec,
	}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	// K is the number of micro- (or mini-) batches executed.
	K int
	// Loss is the batch-weighted mean training loss.
	Loss float64
	// TrainAcc is the training accuracy over the epoch's *labeled* outputs;
	// masked seeds (label < 0) are excluded from both numerator and
	// denominator. It is 0 when no labeled output was seen.
	TrainAcc float64
	// PeakBytes is the device peak across the epoch (0 without a device).
	PeakBytes int64
	// H2DBytes is the exact host-to-device bytes the epoch's batches moved
	// (train.StepResult.H2DBytes summed), with or without a device.
	H2DBytes int64
	// TransferSeconds and ComputeSeconds are always zero. They are inert
	// stubs, kept only because benchmark/ still reads them; the device
	// models no time.
	TransferSeconds, ComputeSeconds float64
	// InputNodes is the total number of first-layer input nodes loaded.
	InputNodes int
	// Redundancy is the duplicated input nodes versus the full batch
	// (zero for full-batch and mini-batch epochs, where it is undefined).
	Redundancy int
	// PlanAttempts counts partition counts evaluated by the planner.
	PlanAttempts int
	// MaxEstimate is the planner's largest estimated micro-batch peak.
	MaxEstimate int64
	// HostBytes is the host-memory footprint (features, labels, graph)
	// that the heterogeneous layout keeps off the device, plus the batch's
	// staged input frontier when the features are out of core.
	HostBytes int64
}

// capacity returns the planning budget: the device capacity, or unbounded
// when training without a device.
func (e *Engine) capacity() int64 {
	if e.Runner.Dev != nil {
		return e.Runner.Dev.Capacity()
	}
	return math.MaxInt64 / 2
}

// PlanEpoch samples the full batch for the given seeds and chooses the
// micro-batch partition (steps 1-3 of the workflow).
func (e *Engine) PlanEpoch(seeds []int32) ([]*graph.Block, *memory.Plan, error) {
	return e.planEpoch(seeds, e.FixedK, e.capacity(), nil)
}

// planEpoch is PlanEpoch with an explicit partition count (0 plans one),
// budget and split (nil plans for one device; see memory.Planner.Split).
func (e *Engine) planEpoch(seeds []int32, fixedK int, capacity int64, split *memory.Split) ([]*graph.Block, *memory.Plan, error) {
	full, err := e.sampleOrReuse(seeds)
	if err != nil {
		return nil, nil, err
	}
	pl := &memory.Planner{
		Capacity:     capacity,
		Partitioner:  e.Partitioner,
		Spec:         e.Spec,
		SafetyMargin: e.SafetyMargin,
		Obs:          e.Obs,
		Split:        split,
	}
	var plan *memory.Plan
	if fixedK > 0 {
		plan, err = pl.EvaluateFixedK(full, fixedK)
	} else {
		plan, err = pl.Plan(full)
	}
	if err != nil {
		return nil, nil, err
	}
	return full, plan, nil
}

// sampleOrReuse produces the epoch's full-batch frontier: from the
// frontier cache when one is installed and holds this seed set, otherwise
// by sampling (and persisting the result when a cache is installed).
func (e *Engine) sampleOrReuse(seeds []int32) ([]*graph.Block, error) {
	if e.Frontiers != nil {
		blocks, ok, err := e.Frontiers.Load(seeds)
		if err != nil {
			return nil, fmt.Errorf("core: macrobatch load: %w", err)
		}
		if ok {
			return blocks, nil
		}
	}
	full, err := e.Sampler.Sample(e.Runner.Data.Graph, seeds)
	if err != nil {
		return nil, fmt.Errorf("core: sampling: %w", err)
	}
	if e.Frontiers != nil {
		e.Obs.Add("macro.resample", 1)
		if err := e.Frontiers.Save(seeds, full); err != nil {
			return nil, fmt.Errorf("core: macrobatch save: %w", err)
		}
	}
	return full, nil
}

// TrainEpochMicro runs one epoch of Betty micro-batch training over the
// dataset's training nodes: one gradient-accumulating pass and a single
// optimizer step.
func (e *Engine) TrainEpochMicro() (EpochStats, error) {
	return e.TrainEpochMicroSeeds(e.Runner.Data.TrainIdx)
}

// TrainEpochMicroSeeds is TrainEpochMicro over an explicit seed set.
func (e *Engine) TrainEpochMicroSeeds(seeds []int32) (EpochStats, error) {
	return e.trainEpoch(seeds, e.FixedK)
}

// trainEpoch is one micro-batch epoch over seeds with fixedK partitions (0
// lets the planner choose).
func (e *Engine) trainEpoch(seeds []int32, fixedK int) (EpochStats, error) {
	var st EpochStats
	full, plan, err := e.planEpoch(seeds, fixedK, e.capacity(), nil)
	if err != nil {
		return st, err
	}
	e.fillPlanStats(&st, full, plan)
	if err := e.stageBatch(plan, &st); err != nil {
		return st, err
	}
	err = e.executePlan(plan, &st)
	e.Runner.Unstage()
	if err != nil {
		return st, err
	}
	e.Runner.Step()
	e.publishEpoch(&st)
	return st, nil
}

// publishEpoch publishes a finished planned epoch's K and peaks.
func (e *Engine) publishEpoch(st *EpochStats) {
	e.Obs.Add("epoch.count", 1)
	e.Obs.Set("epoch.k", int64(st.K))
	e.Obs.Set("epoch.peak_bytes", st.PeakBytes)
	e.Obs.Set("epoch.est_peak_bytes", st.MaxEstimate)
}

// fillPlanStats records the planning outcome on st.
func (e *Engine) fillPlanStats(st *EpochStats, full []*graph.Block, plan *memory.Plan) {
	st.K = plan.K
	st.PlanAttempts = plan.Attempts
	st.MaxEstimate = plan.MaxPeak
	st.Redundancy = plan.Redundancy(full)
	st.InputNodes = graph.TotalInputNodes(plan.Micro)
	st.HostBytes = e.Runner.Data.HostBytes()
}

// stageBatch stages the plan's input frontier on the runner with one
// gather (a no-op over an in-RAM source; see train.Runner.StageBatch) and
// counts the staged host bytes into st. The caller must Unstage once every
// pass over the plan's micro-batches is done.
func (e *Engine) stageBatch(plan *memory.Plan, st *EpochStats) error {
	staged, err := e.Runner.StageBatch(plan.Micro)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	st.HostBytes += staged
	return nil
}

// labeled counts the labeled (label >= 0) nodes among nids.
func (e *Engine) labeled(nids []int32) int {
	n := 0
	for _, nid := range nids {
		if e.Runner.Data.Labels[nid] >= 0 {
			n++
		}
	}
	return n
}

// fold folds executed batches into one epoch's stats. Losses follow the
// labeled-count convention: SoftmaxCrossEntropy averages over labeled rows
// only, so each batch's loss is weighted by its share of the epoch's
// labeled outputs — weighting by the raw destination count would
// over-weight batches that happen to hold many unlabeled seeds. When no
// label is masked the two conventions produce the same floats. Accuracy is
// over labeled outputs only, and 0 when none was seen.
type fold struct {
	e  *Engine
	st *EpochStats
	// labeled is the epoch's labeled output count; correct and seen count
	// the executed batches' correct and labeled outputs.
	labeled, correct, seen int
}

// run executes one batch with its loss scaled by scale before backward and
// folds its loss, accuracy, H2D bytes and device peak into the stats. The
// device peak is reset first: transient buffers are freed between batches,
// so the epoch peak is the max of the per-batch peaks, and each batch's
// peak lines up with its own estimate.
func (f *fold) run(blocks []*graph.Block, scale float32) error {
	r := f.e.Runner
	if r.Dev != nil {
		r.Dev.ResetPeak()
	}
	res, err := r.RunMicroBatch(blocks, scale)
	if err != nil {
		return err
	}
	st := f.st
	if f.labeled > 0 {
		st.Loss += res.Loss * float64(res.Count) / float64(f.labeled)
	}
	f.correct += res.Correct
	f.seen += res.Count
	if f.seen > 0 {
		st.TrainAcc = float64(f.correct) / float64(f.seen)
	}
	st.H2DBytes += res.H2DBytes
	st.PeakBytes = max(st.PeakBytes, res.PeakBytes)
	return nil
}

// share is a micro-batch's gradient scale: its share of the epoch's
// labeled outputs, so the accumulated micro-batch gradients equal the full
// batch's (0 when nothing is labeled).
func (f *fold) share(blocks []*graph.Block) float32 {
	if f.labeled == 0 {
		return 0
	}
	return float32(f.e.labeled(blocks[len(blocks)-1].DstNID)) / float32(f.labeled)
}

// executePlan runs the planned micro-batches in plan order — one
// gradient-accumulating pass, each micro-batch's gradient scaled by its
// fold share — and folds them into st. It is the canonical
// execution shared by single-device training and the multi-device path,
// which is what keeps the two bitwise identical: the numerical work is a
// function of the plan alone, never of how many devices the simulation
// spreads it over.
func (e *Engine) executePlan(plan *memory.Plan, st *EpochStats) error {
	f := fold{e: e, st: st}
	for _, micro := range plan.Micro {
		f.labeled += e.labeled(micro[len(micro)-1].DstNID)
	}
	for i, micro := range plan.Micro {
		if err := f.run(micro, f.share(micro)); err != nil {
			return fmt.Errorf("core: micro-batch: %w", err)
		}
		e.Obs.Observe("micro.est_peak_bytes", plan.Estimates[i].Peak())
	}
	return nil
}

// TrainEpochFull runs one full-batch epoch (K = 1): the baseline whose
// memory footprint Betty reduces. It fails with a device OOM error when
// the batch does not fit.
func (e *Engine) TrainEpochFull() (EpochStats, error) {
	return e.trainEpoch(e.Runner.Data.TrainIdx, 1)
}

// TrainEpochMini runs one epoch of conventional mini-batch training with k
// batches: training nodes are split randomly, each mini-batch is sampled
// independently from the raw graph (so shared neighbors are re-expanded,
// not sliced), and the optimizer steps after every batch. This is the
// baseline of Table 6 and §3.3 — note it changes the effective batch size.
func (e *Engine) TrainEpochMini(k int, shuffleSeed uint64) (EpochStats, error) {
	seeds := e.Runner.Data.TrainIdx
	if k <= 0 || k > len(seeds) {
		return EpochStats{}, fmt.Errorf("core: invalid mini-batch count %d", k)
	}
	st := EpochStats{K: k}
	order := slices.Clone(seeds)
	shuffle(order, shuffleSeed)
	f := fold{e: e, st: &st, labeled: e.labeled(order)}
	n := len(order)
	for i := 0; i < k; i++ {
		blocks, err := e.Sampler.Sample(e.Runner.Data.Graph, order[i*n/k:(i+1)*n/k])
		if err != nil {
			return st, err
		}
		st.InputNodes += blocks[0].NumSrc
		if err := f.run(blocks, 1); err != nil {
			return st, fmt.Errorf("core: mini-batch %d: %w", i, err)
		}
		e.Runner.Step()
	}
	return st, nil
}

// TestAccuracy evaluates the model on the dataset's test split.
func (e *Engine) TestAccuracy() (float64, error) {
	return e.evaluate(e.Runner.Data.TestIdx)
}

// ValAccuracy evaluates the model on the validation split.
func (e *Engine) ValAccuracy() (float64, error) {
	return e.evaluate(e.Runner.Data.ValIdx)
}

// evalChunk is evaluation's sampling unit. The sampler derives one random
// stream per call from its first seed, so the chunk size fixes which
// neighborhoods are drawn and with them the accuracy; planning then splits
// each sampled chunk as the device requires, which by per-row stability
// (DESIGN.md §11) changes no logit bit.
const evalChunk = 2048

// evaluate computes accuracy over seeds through PlannedForward, one
// sampled chunk at a time, on the runner's device when it has one: the
// model state is made resident as a training step does, and every chunk is
// planned into the room left beside it, so evaluation never runs out of
// memory either — it fits or fails with memory.ErrCannotFit. Masked seeds
// (label < 0) count in neither numerator nor denominator, matching
// training; it is an error only when no labeled seed is seen at all.
//
// Its planner reports nothing, so the plan.* metrics keep describing
// training; the eval span carries the largest K, the K attempts summed and
// the largest planned forward peak.
func (e *Engine) evaluate(seeds []int32) (float64, error) {
	r := e.Runner
	if err := r.EnsureResident(); err != nil {
		return 0, err
	}
	capacity := e.capacity()
	if r.Dev != nil {
		params := int64(e.Spec.ParamsGNN+e.Spec.ParamsAgg) * memory.BytesPerValue
		capacity += device.RoundAlloc(params) - r.Dev.Used()
	}
	part := e.Partitioner
	if bb, ok := part.(reg.BettyBatch); ok {
		bb.Obs = nil
		part = bb
	}
	pl := &memory.Planner{
		Capacity:     capacity,
		Partitioner:  part,
		Spec:         e.Spec,
		SafetyMargin: e.SafetyMargin,
		Peak:         memory.Breakdown.ForwardPeak,
	}
	sp := e.Obs.StartSpan(obs.PhaseEval).
		SetInt("seeds", int64(len(seeds))).
		SetInt("chunks", int64((len(seeds)+evalChunk-1)/evalChunk))
	defer sp.End()
	var correct, labeled, maxK, attempts int
	var maxPeak int64
	for lo := 0; lo < len(seeds); lo += evalChunk {
		blocks, err := e.Sampler.Sample(r.Data.Graph, seeds[lo:min(lo+evalChunk, len(seeds))])
		if err != nil {
			return 0, fmt.Errorf("core: sampling: %w", err)
		}
		dst := blocks[len(blocks)-1].DstNID
		plan, err := PlannedForward(pl, blocks, r.Model, r.Data.FeatureSource(), &e.stage, r.Dev, 0,
			func(pos int, row []float32) {
				if y := r.Data.Labels[dst[pos]]; y >= 0 {
					labeled++
					if tensor.ArgmaxRow(row) == y {
						correct++
					}
				}
			})
		if err != nil {
			return 0, fmt.Errorf("core: evaluation: %w", err)
		}
		maxK, attempts, maxPeak = max(maxK, plan.K), attempts+plan.Attempts, max(maxPeak, plan.MaxPeak)
	}
	sp.SetInt("k", int64(maxK)).SetInt("attempts", int64(attempts)).SetInt("max_peak_bytes", maxPeak)
	if labeled == 0 {
		return 0, fmt.Errorf("core: no labeled evaluation nodes")
	}
	return float64(correct) / float64(labeled), nil
}

// shuffle is a seeded Fisher-Yates over node ids.
func shuffle(s []int32, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(s) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// Setup bundles the pieces most callers need: model, optimizer, runner,
// spec, sampler, and engine, built from a dataset and a few knobs.
type Setup struct {
	Model   train.Model
	Opt     nn.Optimizer
	Runner  *train.Runner
	Engine  *Engine
	Dataset *dataset.Dataset
}

// Options configures Build and BuildSAGE.
type Options struct {
	// Hidden is the hidden width (default 64).
	Hidden int
	// Fanouts are the per-layer sampling bounds, input-first; the model has
	// one layer per fanout.
	Fanouts []int
	// Aggregator selects the SAGE reduction (default Mean).
	Aggregator nn.Aggregator
	// Heads is the GAT head count (default 4).
	Heads int
	// LR is the learning rate (default 0.01 Adam).
	LR float32
	// Device, when non-nil, enforces capacity and accumulates time.
	Device *device.Device
	// Seed drives weights, sampling, and partitioning.
	Seed uint64
	// FixedK forces the partition count (0 = memory-aware planning).
	FixedK int
	// Partitioner overrides Betty's REG partitioning (for baselines).
	Partitioner reg.BatchPartitioner
}

func (o *Options) defaults() {
	if o.Hidden == 0 {
		o.Hidden = 64
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{10, 25}
	}
	//bettyvet:ok floateq zero-value config sentinel: an unset LR is exactly 0
	if o.LR == 0 {
		o.LR = 0.01
	}
}

// Build assembles the setup the CLIs' -model and -agg flags name: arch is
// sage, gat or gcn; agg names the SAGE aggregator and is read for sage only.
func Build(ds *dataset.Dataset, arch, agg string, opts Options) (*Setup, error) {
	if arch == "sage" {
		a, err := nn.ParseAggregator(agg)
		if err != nil {
			return nil, err
		}
		opts.Aggregator = a
	}
	return build(ds, arch, opts)
}

// ParseFanouts reads the CLIs' -fanouts flag: comma-separated per-layer
// sampling bounds, input-first, each positive or -1 for all neighbors.
func ParseFanouts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v == 0 || v < -1 {
			return nil, fmt.Errorf("bad fanout %q (positive integers or -1 for all neighbors)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// BuildSAGE assembles a GraphSAGE training setup over ds.
func BuildSAGE(ds *dataset.Dataset, opts Options) (*Setup, error) {
	return build(ds, "sage", opts)
}

// build assembles a training setup for arch over ds. The architectures
// differ only in their constructor: GraphSAGE reads opts.Aggregator, GAT
// opts.Heads, and GCN neither (it always uses the normalized sum).
func build(ds *dataset.Dataset, arch string, opts Options) (*Setup, error) {
	opts.defaults()
	cfg := nn.Config{
		InDim:      ds.FeatureDim(),
		Hidden:     opts.Hidden,
		OutDim:     ds.NumClasses,
		Layers:     len(opts.Fanouts),
		Aggregator: opts.Aggregator,
		Heads:      opts.Heads,
	}
	r := rngFor(opts.Seed)
	var model interface {
		train.Model
		memory.Model
	}
	var err error
	switch arch {
	case "sage":
		model, err = nn.NewGraphSAGE(cfg, r)
	case "gcn":
		model, err = nn.NewGCN(ds.Graph, cfg, r)
	case "gat":
		model, err = nn.NewGAT(cfg, r)
	default:
		return nil, fmt.Errorf("unknown model %q (sage, gat, or gcn)", arch)
	}
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(model, opts.LR)
	runner := train.NewRunner(model, ds, opt, opts.Device)
	eng := New(runner, sample.New(opts.Fanouts, opts.Seed^0x5a), memory.SpecOf(model, opt), opts.Seed^0xb7)
	eng.FixedK = opts.FixedK
	if opts.Partitioner != nil {
		eng.Partitioner = opts.Partitioner
	}
	return &Setup{Model: model, Opt: opt, Runner: runner, Engine: eng, Dataset: ds}, nil
}
