package nn

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/tensor"
)

// BlockLayer is one GNN layer that can be applied to a single bipartite
// block — the unit of layer-wise forward execution. All conv layers in
// this package satisfy it. Forward applies the inter-layer ReLU when relu
// is set, which a model does for every layer but its last.
type BlockLayer interface {
	Module
	Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var
}

// blockCSR assembles the tensor.CSR view of block b from its memoized
// derived views — per-edge endpoint slices and the source inverse for the
// backward scatter-add — with the optional edge weights wt and
// per-destination post-scale invDeg. Everything is cached on the block, so
// building the struct on the hot path allocates nothing.
func blockCSR(b *graph.Block, wt, invDeg []float32) tensor.CSR {
	src, dst := b.EdgePairs()
	cnt, pos := b.SrcInverse()
	return tensor.CSR{Src: src, Dst: dst, Wt: wt, InvDeg: invDeg, InvCnt: cnt, InvPos: pos, NSrc: b.NumSrc, NDst: b.NumDst}
}

// Stack is a model as a list of layers, one per block: ReLU between
// layers, raw logits at the output. GraphSAGE, GCN and GAT embed it, so
// the whole-model forward loop, the parameter order (the checkpoint
// format) and the architecture accessor exist once. Training, evaluation
// and serving all run that one loop.
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

// Forward runs the model over an input-first block list; x holds the input
// features of blocks[0].NumSrc source nodes. It returns logits for the last
// block's destinations.
func (s *Stack[L]) Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	if len(blocks) != len(s.Layers) {
		panic(fmt.Sprintf("nn: model has %d layers but batch has %d blocks", len(s.Layers), len(blocks)))
	}
	h := x
	for l, layer := range s.Layers {
		h = layer.Forward(tp, blocks[l], h, l < len(s.Layers)-1)
	}
	return h
}
