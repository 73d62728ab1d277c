package core

import (
	"fmt"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/tensor"
	"betty/internal/train"
)

// BatchInference runs one forward pass of model over an input-first block
// list and returns the logits for the last block's destinations as a fresh
// tensor (one row per destination, in DstNID order). No gradients are
// recorded and all intermediates are recycled before returning. model must
// be a train.Model with one layer per block.
//
// Training (train.Runner.RunMicroBatch), evaluation and serving
// (PlannedForward) and this function all call the model's own Forward, one
// loop over its layers, so predictions are bitwise equal across the paths.
func BatchInference(model any, blocks []*graph.Block, feats *tensor.Tensor) (*tensor.Tensor, error) {
	m, ok := model.(train.Model)
	if !ok {
		return nil, fmt.Errorf("core: %T has no forward", model)
	}
	if len(blocks) != m.Config().Layers {
		return nil, fmt.Errorf("core: %d blocks for %d layers", len(blocks), m.Config().Layers)
	}
	if feats.Rows() != blocks[0].NumSrc {
		return nil, fmt.Errorf("core: feature rows %d != %d input nodes", feats.Rows(), blocks[0].NumSrc)
	}
	tp := tensor.NewTape()
	defer tp.Release() // logits are cloned out below; recycle the arena
	return m.Forward(tp, blocks, tensor.Leaf(feats)).Value.Clone(), nil
}

// PlannedForward is the one forward-only path: serving's batches and
// evaluation's chunks both run through it. It plans blocks with pl, whose
// Peak must be memory.Breakdown.ForwardPeak; stages the plan's input
// frontier from src into stage (a no-op over a resident source); then, in
// plan order, gathers each micro-batch's input rows, forwards it through
// the model and hands every output row to emit
// with its position among the last block's destinations. A row is valid
// only during its emit call. It returns the plan.
//
// With a device, each micro-batch charges its input features and blocks
// before the forward and its activations (the tape's values) after, and
// frees all three before the next; labels are not charged, since
// predictions are read on the host. ForwardPeak counts the parameters,
// which the ledger already holds, so pl.Capacity must be the ledger's room
// plus their charge, dev.Capacity() − dev.Used() + RoundAlloc(params):
// then the ledger peaks at dev.Used() − RoundAlloc(params) + plan.MaxPeak,
// to the byte, and never runs out.
//
// The h2d and forward spans go to pl.Obs, tagged with batch. Pooled
// buffers and ledger charges are returned on every exit, panics included.
func PlannedForward(pl *memory.Planner, blocks []*graph.Block, model train.Model, src dataset.FeatureSource,
	stage *dataset.Stage, dev *device.Device, batch int64, emit func(pos int, row []float32)) (*memory.Plan, error) {
	plan, err := pl.Plan(blocks)
	if err != nil {
		return nil, fmt.Errorf("core: planning: %w", err)
	}
	if src, err = stage.Load(src, plan.Micro, pl.Obs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer stage.Release()
	tp := tensor.NewTape()
	defer tp.Release()
	for gi, micro := range plan.Micro {
		if err := forwardMicro(tp, pl.Obs, batch, model, micro, src, dev, plan.Groups[gi], emit); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// forwardMicro gathers, charges and forwards one planned micro-batch on tp
// and emits its rows; group holds the destination positions its rows
// score, in its destination order. It rewinds tp and frees its charges
// before returning.
func forwardMicro(tp *tensor.Tape, reg *obs.Registry, batch int64, model train.Model, micro []*graph.Block,
	src dataset.FeatureSource, dev *device.Device, group []int32, emit func(int, []float32)) error {
	defer tp.Release()
	nids := micro[0].SrcNID
	sp := reg.StartSpan(obs.PhaseH2D).SetInt("batch", batch).SetInt("rows", int64(len(nids)))
	x := tp.Alloc(len(nids), src.Dim())
	err := src.GatherInto(x, nids)
	sp.End()
	if err != nil {
		return fmt.Errorf("core: gather: %w", err)
	}
	var live []*device.Buffer
	if dev != nil {
		c := memory.BatchCharges(micro, src.Dim(), 0)
		if live, err = memory.Alloc(dev, nil, c[0], c[2]); err != nil {
			return err
		}
		defer func() { memory.Free(dev, live) }()
	}
	fsp := reg.StartSpan(obs.PhaseForward).
		SetInt("batch", batch).
		SetInt("outputs", int64(len(group))).
		SetInt("inputs", int64(micro[0].NumSrc))
	h := model.Forward(tp, micro, tensor.Leaf(x))
	fsp.End()
	if dev != nil {
		c := memory.BatchCharges(micro, src.Dim(), tp.ValueBytes())
		if live, err = memory.Alloc(dev, live, c[3]); err != nil {
			return fmt.Errorf("core: forward activations: %w", err)
		}
	}
	for ri, pos := range group {
		emit(int(pos), h.Value.Row(ri))
	}
	return nil
}
