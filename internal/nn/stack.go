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
//
// TapeValues states what Forward records: the float32 values Forward(tp,
// b, h, relu) puts on tp (tp.ValueBytes()/4), as out for the layer's result
// and rest for everything before it — the paper's hidden (N_i x h_i) and
// aggregator terms (§4.4.3, Table 3). buckets = false leaves out the one
// term that is not linear in b's node and edge counts, the LSTM
// aggregator's degree buckets.
type BlockLayer interface {
	Module
	Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var
	TapeValues(b *graph.Block, relu, buckets bool) (out, rest int64)
}

// blockCSR assembles the tensor.CSR view of block b from its memoized
// per-edge endpoint slices, with the optional edge weights wt and
// per-destination post-scale invDeg. The block itself supplies the source
// inverse, which it builds only when a backward scatter-add first asks for
// it: never in serving, evaluation, or over the input features. Everything
// is cached on the block, so building the struct on the hot path allocates
// nothing.
func blockCSR(b *graph.Block, wt, invDeg []float32) tensor.CSR {
	src, dst := b.EdgePairs()
	return tensor.CSR{Src: src, Dst: dst, Wt: wt, InvDeg: invDeg, Inverse: b, NSrc: b.NumSrc, NDst: b.NumDst}
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
		h = layer.Forward(tp, blocks[l], h, s.relu(l))
	}
	return h
}

// relu reports whether Forward applies ReLU after layer l: every layer but
// the last.
func (s *Stack[L]) relu(l int) bool { return l < len(s.Layers)-1 }

// LayerTape is one layer of a model as the model's Forward runs it: the
// layer and the ReLU Forward applies after it.
type LayerTape struct {
	layer BlockLayer
	relu  bool
}

// Values is the layer's TapeValues on b under that ReLU.
func (t LayerTape) Values(b *graph.Block, buckets bool) (out, rest int64) {
	return t.layer.TapeValues(b, t.relu, buckets)
}

// Tapes returns every layer as Forward runs it, in layer order — what the
// memory estimator sums.
func (s *Stack[L]) Tapes() []LayerTape {
	ts := make([]LayerTape, len(s.Layers))
	for l, layer := range s.Layers {
		ts[l] = LayerTape{layer, s.relu(l)}
	}
	return ts
}
