// Package train executes GNN training steps against the simulated device:
// it gathers batch inputs, counts the bytes they move host-to-device,
// charges the device ledger (reproducing OOM boundaries), and runs the real
// forward/backward pass on the autograd tape. Epoch-level strategies
// (full-batch, Betty micro-batch, mini-batch) are composed on top of it by
// package core.
package train

import (
	"fmt"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/tensor"
)

// Model abstracts the trainable GNNs (GraphSAGE, GAT).
type Model interface {
	nn.Module
	// Forward maps an input-first block list and input features to logits
	// for the last block's destinations.
	Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var
	// Config returns the architecture description.
	Config() nn.Config
}

// StepResult reports one executed (micro-)batch.
type StepResult struct {
	// Loss is the unscaled mean cross-entropy over the batch's outputs.
	Loss float64
	// Correct and Count give training accuracy over the batch's outputs.
	Correct, Count int
	// H2DBytes is the exact bytes the batch moves host-to-device: input
	// features, labels and block structure, before allocator rounding. It
	// is counted whether or not a device is attached.
	H2DBytes int64
	// TransferSeconds and ComputeSeconds are always zero. They are inert
	// stubs, kept only because benchmark/ still reads them; the device
	// models no time.
	TransferSeconds, ComputeSeconds float64
	// ActivationBytes is the tape's materialized intermediate memory.
	ActivationBytes int64
	// PeakBytes is the device peak observed during this batch (0 when no
	// device is attached).
	PeakBytes int64
}

// Runner executes batches for one model/dataset pair.
type Runner struct {
	Model Model
	Data  *dataset.Dataset
	Opt   nn.Optimizer

	// Dev, when non-nil, enforces the memory capacity. Training without a
	// device skips the ledger.
	Dev *device.Device

	// Obs, when non-nil, receives per-phase spans (h2d, forward, backward,
	// step, eval) and per-micro-batch metrics. A nil registry costs one
	// pointer test per instrumentation point (see BenchmarkMicroBatchObs).
	Obs *obs.Registry

	// Emb, nil by default (forwards are Model.Forward), is the
	// historical-embedding cache (DESIGN.md §16): when active, micro-batch
	// forwards route through embcache.Forward, and every optimizer Step
	// bumps the cache's weight version. Evaluation and MeasureForward
	// never consult it.
	Emb *embcache.Cache

	resident []*device.Buffer

	// tape is reused across micro-batches: Release rewinds it, so every
	// step after the first records its graph into recycled headers and
	// pooled buffers. Training steps are serial; Evaluate's parallel
	// chunks use their own tapes.
	tape *tensor.Tape
	// params caches Model.Params() so the per-step ZeroGrad stops
	// rebuilding the slice.
	params []*tensor.Var

	// From StageBatch to Unstage, batch is the source micro-batch gathers
	// read: stage, or the dataset's source when it is resident.
	stage dataset.Stage
	batch dataset.FeatureSource
}

// NewRunner wires a model, dataset, and optimizer; dev may be nil.
func NewRunner(m Model, d *dataset.Dataset, opt nn.Optimizer, dev *device.Device) *Runner {
	return &Runner{Model: m, Data: d, Opt: opt, Dev: dev}
}

// AllocResident allocates a model's persistent state on dev: parameters,
// gradients, and optimizer states, which live across batches. On error
// nothing stays allocated.
func AllocResident(dev *device.Device, m nn.Module, opt nn.Optimizer) ([]*device.Buffer, error) {
	params := int64(nn.ParamCount(m))
	bufs, err := Alloc(dev, nil,
		Charge{params * 4, "parameters"},
		Charge{params * 4, "gradients"},
		Charge{params * int64(opt.StateSize()) * 4, "optimizer-states"},
	)
	if err != nil {
		return nil, fmt.Errorf("train: resident state: %w", err)
	}
	return bufs, nil
}

// Charge is one buffer put on a device ledger.
type Charge struct {
	Bytes int64
	Label string
}

// BatchCharges lists the buffers a batch puts on a device, in allocation
// order: the host-to-device copies — input features, labels and block
// structure, whose sum is the batch's H2DBytes — then the activations its
// forward materializes (0 until a forward has measured them). blocks must
// be non-empty. It allocates nothing, since every training step calls it.
func BatchCharges(blocks []*graph.Block, featDim int, activations int64) [4]Charge {
	var edges int64
	for _, b := range blocks {
		edges += int64(b.NumEdges())
	}
	return [4]Charge{
		{int64(blocks[0].NumSrc) * int64(featDim) * 4, "input-features"},
		{int64(blocks[len(blocks)-1].NumDst) * 4, "labels"},
		{edges * 3 * 4, "blocks"},
		{activations, "activations"},
	}
}

// Alloc charges cs to dev in order, skipping empty ones, and returns live
// with the new buffers appended. On OOM it frees every buffer in live and
// the ones it allocated, and returns the error unchanged.
func Alloc(dev *device.Device, live []*device.Buffer, cs ...Charge) ([]*device.Buffer, error) {
	for _, c := range cs {
		if c.Bytes == 0 {
			continue
		}
		buf, err := dev.Alloc(c.Bytes, c.Label)
		if err != nil {
			Free(dev, live)
			return nil, err
		}
		live = append(live, buf)
	}
	return live, nil
}

// Free releases bufs on dev (nothing when bufs is empty, so a nil device
// with no buffers is fine).
func Free(dev *device.Device, bufs []*device.Buffer) {
	for _, b := range bufs {
		dev.Free(b)
	}
}

// EnsureResident allocates the runner's resident state on its device once.
func (r *Runner) EnsureResident() error {
	if r.Dev == nil || r.resident != nil {
		return nil
	}
	var err error
	r.resident, err = AllocResident(r.Dev, r.Model, r.Opt)
	return err
}

// ReleaseResident frees the persistent buffers (end of training).
func (r *Runner) ReleaseResident() {
	if r.Dev == nil {
		return
	}
	Free(r.Dev, r.resident)
	r.resident = nil
}

// StageBatch loads a batch's input frontier — the union of every
// micro-batch's layer-0 inputs — into the runner's dataset.Stage with one
// gather. Until Unstage, RunMicroBatch and MeasureForward copy their input
// rows from it instead of each walking the feature source again; over a
// resident source they read the source itself, as before. It returns the
// staged bytes (0 when nothing was staged). On error nothing stays staged.
func (r *Runner) StageBatch(micros [][]*graph.Block) (int64, error) {
	var err error
	if r.batch, err = r.stage.Load(r.Data.FeatureSource(), micros, r.Obs); err != nil {
		return 0, err
	}
	bytes := r.stage.ResidentBytes()
	if bytes > 0 {
		r.Obs.Set("train.staged_bytes", bytes)
	}
	return bytes, nil
}

// Unstage releases the batch stage, if any; later gathers read the feature
// source again.
func (r *Runner) Unstage() {
	r.stage.Release()
	r.batch = nil
}

// inputs is the source micro-batch gathers read: the batch's between
// StageBatch and Unstage, otherwise the dataset's.
func (r *Runner) inputs() dataset.FeatureSource {
	if r.batch != nil {
		return r.batch
	}
	return r.Data.FeatureSource()
}

// RunMicroBatch runs forward+backward on blocks, scaling the loss by scale
// before backpropagation so that accumulated micro-batch gradients equal
// the full-batch gradient (scale = microOutputs/batchOutputs). Gradients
// accumulate in the model; call Step to apply them.
//
// With a device attached, the batch's transient tensors are charged to the
// ledger first; an OOM error aborts the batch before any compute.
func (r *Runner) RunMicroBatch(blocks []*graph.Block, scale float32) (StepResult, error) {
	var res StepResult
	if len(blocks) == 0 {
		return res, fmt.Errorf("train: empty batch")
	}
	input := blocks[0]
	last := blocks[len(blocks)-1]
	if r.tape == nil {
		r.tape = tensor.NewTape()
	}
	tp := r.tape
	defer tp.Release()
	// Stage the feature fetch in the tape's pooled arena: the big per-batch
	// input copy recycles the same buffer across micro-batches. Unless the
	// batch is staged (StageBatch), an out-of-core source pulls the
	// frontier's shards through its cache here; a load failure aborts the
	// batch before any compute.
	x := tp.Alloc(len(input.SrcNID), r.Data.FeatureDim())
	if err := r.inputs().GatherInto(x, input.SrcNID); err != nil {
		return res, fmt.Errorf("train: feature gather: %w", err)
	}
	labels := r.Data.GatherLabels(last.DstNID)

	// Device phase 1: count the host-to-device copies and charge their
	// memory.
	stats := graph.Stats(blocks)
	charges := BatchCharges(blocks, r.Data.FeatureDim(), 0)
	h2d := charges[:3]
	for _, c := range h2d {
		res.H2DBytes += c.Bytes
	}
	if err := r.EnsureResident(); err != nil {
		return res, err
	}
	var live []*device.Buffer
	if r.Dev != nil {
		hsp := r.Obs.StartSpan(obs.PhaseH2D).
			SetInt("input_nodes", int64(stats.NumInput)).
			SetInt("edges", int64(stats.TotalEdges))
		var err error
		live, err = Alloc(r.Dev, nil, h2d...)
		hsp.End()
		if err != nil {
			r.Obs.Add("train.oom", 1)
			return res, err
		}
	}

	// Forward + loss on the tape. Every intermediate tensor comes from the
	// buffer pool, and the deferred Release rewinds the tape once the
	// batch's results have been extracted — on success and on the OOM error
	// path — so the next micro-batch reuses the same arena. Only leaf and
	// parameter storage (including the accumulated gradients) outlives it.
	fsp := r.Obs.StartSpan(obs.PhaseForward).
		SetInt("input_nodes", int64(input.NumSrc)).
		SetInt("outputs", int64(last.NumDst))
	logits, err := r.forward(tp, blocks, tensor.Leaf(x))
	if err != nil {
		fsp.End()
		Free(r.Dev, live)
		return res, err
	}
	loss := tp.SoftmaxCrossEntropy(logits, labels)
	fsp.End()
	res.Loss = float64(loss.Value.Data[0])
	res.Correct, res.Count = score(logits.Value, labels)
	res.ActivationBytes = tp.ValueBytes()

	// Device phase 2: charge activations, then backward.
	if r.Dev != nil {
		charges[3].Bytes = res.ActivationBytes
		if live, err = Alloc(r.Dev, live, charges[3]); err != nil {
			r.Obs.Add("train.oom", 1)
			return res, fmt.Errorf("train: forward activations: %w", err)
		}
		res.PeakBytes = r.Dev.Peak()
	}
	bsp := r.Obs.StartSpan(obs.PhaseBackward).SetInt("outputs", int64(last.NumDst))
	//bettyvet:ok floateq identity-scale fast path: scale is exactly 1 when no loss rescaling was requested
	if scale != 1 {
		loss = tp.Scale(loss, scale)
	}
	tp.Backward(loss)
	bsp.End()
	Free(r.Dev, live)
	r.Obs.Add("train.micro_batches", 1)
	r.Obs.Observe("micro.activation_bytes", res.ActivationBytes)
	if res.PeakBytes > 0 {
		r.Obs.Observe("micro.peak_bytes", res.PeakBytes)
	}
	return res, nil
}

// score counts a batch's labeled outputs and the correct predictions among
// them; masked outputs (label < 0) count in neither.
func score(logits *tensor.Tensor, labels []int32) (correct, labeled int) {
	for i, p := range tensor.Argmax(logits) {
		if labels[i] >= 0 {
			labeled++
			if p == labels[i] {
				correct++
			}
		}
	}
	return correct, labeled
}

// forward routes a micro-batch forward through the historical-embedding
// cache when one is active; otherwise it is exactly Model.Forward. In
// exact mode the cached path is op-for-op identical to the plain one
// (verified bitwise row by row), so loss and gradients never change; in
// reuse mode hit rows enter as constants and only misses are computed.
func (r *Runner) forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) (*tensor.Var, error) {
	if !r.Emb.Active() {
		return r.Model.Forward(tp, blocks, x), nil
	}
	return embcache.Forward(tp, r.Model, blocks, x, r.Emb)
}

// ForwardCost reports the measured cost of a gradient-free forward pass:
// what a batch would materialize, measured without perturbing gradient
// accumulation.
type ForwardCost struct {
	// ActivationBytes is the tape's materialized intermediate memory.
	ActivationBytes int64
}

// MeasureForward runs forward + loss on a scratch tape and returns the
// measured cost. It never touches the device ledger, the runner's
// persistent tape, or any parameter gradient (backward is never invoked),
// so interleaving it with RunMicroBatch leaves training numerics bitwise
// unchanged — the scratch tape draws zeroed buffers from the shared pool.
func (r *Runner) MeasureForward(blocks []*graph.Block) (ForwardCost, error) {
	var fc ForwardCost
	if len(blocks) == 0 {
		return fc, fmt.Errorf("train: empty batch")
	}
	input := blocks[0]
	last := blocks[len(blocks)-1]
	tp := tensor.NewTape()
	defer tp.Release()
	x := tp.Alloc(len(input.SrcNID), r.Data.FeatureDim())
	if err := r.inputs().GatherInto(x, input.SrcNID); err != nil {
		return fc, fmt.Errorf("train: feature gather: %w", err)
	}
	labels := r.Data.GatherLabels(last.DstNID)
	logits := r.Model.Forward(tp, blocks, tensor.Leaf(x))
	tp.SoftmaxCrossEntropy(logits, labels)
	fc.ActivationBytes = tp.ValueBytes()
	return fc, nil
}

// Step applies the optimizer to the accumulated gradients and clears them.
func (r *Runner) Step() {
	sp := r.Obs.StartSpan(obs.PhaseStep)
	r.Opt.Step()
	if r.params == nil {
		r.params = r.Model.Params()
	}
	for _, p := range r.params {
		p.ZeroGrad()
	}
	sp.End()
	// The weights just changed: advance the embedding-cache version so
	// rows computed before this step age by one (and exact mode never
	// verifies against rows from older weights).
	r.Emb.BumpVersion()
	r.Obs.Add("train.steps", 1)
}

// sampler is the subset of sample.Sampler the evaluator needs; declared
// here to avoid a dependency cycle in tests that fake it. Sample must be
// safe for concurrent calls (the evaluator runs chunks in parallel).
type sampler interface {
	Sample(g *graph.Graph, seeds []int32) ([]*graph.Block, error)
}

// Evaluate computes accuracy over seeds, processing them in chunks of
// chunkSize with the given sampler (no device accounting, no gradients).
// Chunks run in parallel: the sampler derives each chunk's random stream
// from the chunk's own seeds, so the result is identical for any worker
// count and to a serial evaluation. Masked seeds (label < 0) are excluded
// from both numerator and denominator, matching RunMicroBatch; it is an
// error only when no labeled seed was seen at all.
func (r *Runner) Evaluate(s sampler, seeds []int32, chunkSize int) (float64, error) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	type chunkResult struct {
		correct, count int
		err            error
	}
	nChunks := (len(seeds) + chunkSize - 1) / chunkSize
	sp := r.Obs.StartSpan(obs.PhaseEval).
		SetInt("seeds", int64(len(seeds))).
		SetInt("chunks", int64(nChunks))
	defer sp.End()
	results := make([]chunkResult, nChunks)
	parallel.For(nChunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			clo := c * chunkSize
			chi := clo + chunkSize
			if chi > len(seeds) {
				chi = len(seeds)
			}
			blocks, err := s.Sample(r.Data.Graph, seeds[clo:chi])
			if err != nil {
				results[c].err = err
				continue
			}
			x, err := r.Data.GatherFeatures(blocks[0].SrcNID)
			if err != nil {
				results[c].err = err
				continue
			}
			labels := r.Data.GatherLabels(blocks[len(blocks)-1].DstNID)
			tp := tensor.NewTape()
			logits := r.Model.Forward(tp, blocks, tensor.Leaf(x))
			results[c].correct, results[c].count = score(logits.Value, labels)
			tp.Release() // predictions extracted; recycle the chunk's arena
		}
	})
	correct, count := 0, 0
	for _, cr := range results {
		if cr.err != nil {
			return 0, cr.err
		}
		correct += cr.correct
		count += cr.count
	}
	if count == 0 {
		return 0, fmt.Errorf("train: no labeled evaluation nodes")
	}
	return float64(correct) / float64(count), nil
}
