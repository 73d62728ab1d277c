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
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/obs"
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
	// step) and per-micro-batch metrics. A nil registry costs one
	// pointer test per instrumentation point (see BenchmarkMicroBatchObs).
	Obs *obs.Registry

	// Emb is inert: nothing reads it. It stays only because benchmark/
	// still assigns it; training has no embedding cache (DESIGN.md §16).
	Emb any

	resident []*device.Buffer

	// tape is reused across micro-batches: Release rewinds it, so every
	// step after the first records its graph into recycled headers and
	// pooled buffers. Training steps are serial.
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

// EnsureResident allocates the runner's resident state on its device once.
func (r *Runner) EnsureResident() error {
	if r.Dev == nil || r.resident != nil {
		return nil
	}
	var err error
	r.resident, err = memory.AllocResident(r.Dev, r.Model, r.Opt)
	return err
}

// ReleaseResident frees the persistent buffers (end of training).
func (r *Runner) ReleaseResident() {
	if r.Dev == nil {
		return
	}
	memory.Free(r.Dev, r.resident)
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
	charges := memory.BatchCharges(blocks, r.Data.FeatureDim(), 0)
	h2d := charges[:3]
	res.H2DBytes = h2d[0].Bytes + h2d[1].Bytes + h2d[2].Bytes
	if err := r.EnsureResident(); err != nil {
		return res, err
	}
	var live []*device.Buffer
	if r.Dev != nil {
		hsp := r.Obs.StartSpan(obs.PhaseH2D).
			SetInt("input_nodes", int64(stats.NumInput)).
			SetInt("edges", int64(stats.TotalEdges))
		var err error
		live, err = memory.Alloc(r.Dev, nil, h2d...)
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
	logits := r.Model.Forward(tp, blocks, tensor.Leaf(x))
	loss := tp.SoftmaxCrossEntropy(logits, labels)
	fsp.End()
	res.Loss = float64(loss.Value.Data[0])
	res.Correct, res.Count = score(logits.Value, labels)
	res.ActivationBytes = tp.ValueBytes()

	// Device phase 2: charge activations, then backward.
	if r.Dev != nil {
		charges[3].Bytes = res.ActivationBytes
		var err error
		if live, err = memory.Alloc(r.Dev, live, charges[3]); err != nil {
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
	memory.Free(r.Dev, live)
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
	r.Obs.Add("train.steps", 1)
}
