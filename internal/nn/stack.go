package nn

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/tensor"
)

// BlockLayer is one GNN layer that can be applied to a single bipartite
// block — the unit of layer-wise forward execution. All conv layers in
// this package satisfy it.
type BlockLayer interface {
	Module
	Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var) *tensor.Var
}

// FusedBlockLayer is the optional fused-tier interface (DESIGN.md §13):
// layers that implement it run gather→aggregate→bias→ReLU in fused
// kernels, with the inter-layer ReLU folded in. Fusion is bitwise-exact,
// so which path executes never changes a prediction byte.
type FusedBlockLayer interface {
	ForwardFused(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var
}

// Stack is a model as a list of layers, one per block: ReLU between
// layers, raw logits at the output. GraphSAGE, GCN and GAT embed it, so
// the whole-model forward loop, the parameter order (the checkpoint
// format) and the architecture accessor exist once.
type Stack[L BlockLayer] struct {
	Layers []L
	cfg    Config
}

// Config returns the model's architecture description.
func (s *Stack[L]) Config() Config { return s.cfg }

// Params implements Module: every layer's parameters, in layer order.
func (s *Stack[L]) Params() []*tensor.Var {
	var ps []*tensor.Var
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// BlockLayers returns the layers as BlockLayer values, for callers that
// apply them one at a time (see LayerStack).
func (s *Stack[L]) BlockLayers() []BlockLayer {
	out := make([]BlockLayer, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = l
	}
	return out
}

// Forward runs the model over an input-first block list; x holds the input
// features of blocks[0].NumSrc source nodes. It returns logits for the last
// block's destinations.
func (s *Stack[L]) Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	if len(blocks) != len(s.Layers) {
		panic(fmt.Sprintf("nn: model has %d layers but batch has %d blocks", len(s.Layers), len(blocks)))
	}
	h := x
	for l, layer := range s.Layers {
		h = ApplyBlockLayer(tp, layer, blocks[l], h, l == len(s.Layers)-1)
	}
	return h
}

// LayerStack extracts the per-layer modules of a supported model. Applying
// them one at a time through ApplyBlockLayer records exactly the op
// sequence the model's own Forward records — it is the same loop body —
// so per-layer execution is bitwise identical to the whole-model forward:
// the property the embedding cache's partial-skip path (internal/embcache)
// relies on.
func LayerStack(model any) ([]BlockLayer, error) {
	m, ok := model.(interface{ BlockLayers() []BlockLayer })
	if !ok {
		return nil, fmt.Errorf("nn: layer-wise execution does not support %T", model)
	}
	return m.BlockLayers(), nil
}

// ApplyBlockLayer runs one GNN layer over one block, applying the
// inter-layer ReLU when the layer is not the model's last. Layers that
// implement the fused tier take it unless SetFused(false) turned it off.
func ApplyBlockLayer(tp *tensor.Tape, layer BlockLayer, b *graph.Block, h *tensor.Var, last bool) *tensor.Var {
	if fl, ok := layer.(FusedBlockLayer); ok && FusedEnabled() {
		return fl.ForwardFused(tp, b, h, !last)
	}
	out := layer.Forward(tp, b, h)
	if !last {
		out = tp.ReLU(out)
	}
	return out
}
