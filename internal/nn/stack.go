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
	Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var) *tensor.Var
}

// FusedBlockLayer is the optional fused-tier interface (DESIGN.md §13):
// layers that implement it run gather→aggregate→bias→ReLU in fused
// kernels, with the inter-layer ReLU folded in. Fusion is bitwise-exact,
// so which path executes never changes a prediction byte.
type FusedBlockLayer interface {
	ForwardFused(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var
}

// LayerStack extracts the per-layer modules of a supported model. Applying
// them one at a time through ApplyBlockLayer records exactly the op
// sequence the model's own Forward records, so per-layer execution is
// bitwise identical to the whole-model forward — the property the
// inference paths (core.BatchInference, core.LayerwiseInference) and the
// embedding cache's partial-skip path (internal/embcache) all rely on.
func LayerStack(model any) ([]BlockLayer, error) {
	switch m := model.(type) {
	case *GraphSAGE:
		out := make([]BlockLayer, len(m.Layers))
		for i, l := range m.Layers {
			out[i] = l
		}
		return out, nil
	case *GAT:
		out := make([]BlockLayer, len(m.Layers))
		for i, l := range m.Layers {
			out[i] = l
		}
		return out, nil
	case *GCN:
		out := make([]BlockLayer, len(m.Layers))
		for i, l := range m.Layers {
			out[i] = l
		}
		return out, nil
	default:
		return nil, fmt.Errorf("nn: layer-wise execution does not support %T", model)
	}
}

// ApplyBlockLayer runs one GNN layer over one block, applying the
// inter-layer ReLU when the layer is not the model's last. Layers that
// implement the fused tier take it unless SetFused(false) turned it off,
// exactly as the models' own Forward loops do.
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
