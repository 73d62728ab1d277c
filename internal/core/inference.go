package core

import (
	"fmt"

	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/tensor"
)

// BatchInference runs one forward pass of model over an input-first block
// list and returns the logits for the last block's destinations as a fresh
// tensor (one row per destination, in DstNID order). No gradients are
// recorded and all intermediates are recycled before returning.
//
// Every path applies the same per-layer step, nn.BlockLayer.Forward with
// relu set on all but the last layer: training (train.Runner.RunMicroBatch)
// and evaluation through the model's Forward (nn.Stack), and the online
// serving path (internal/serve) through here — the op sequence is identical
// in both cases, so predictions are bitwise equal across the two paths.
func BatchInference(model any, blocks []*graph.Block, feats *tensor.Tensor) (*tensor.Tensor, error) {
	return BatchInferenceCached(model, blocks, feats, nil)
}

// BatchInferenceCached is BatchInference with an optional historical-
// embedding cache (DESIGN.md §16). A nil or off cache takes exactly the
// plain path; an exact cache verifies layer-1 rows bitwise while
// populating; a reuse cache splices cached layer-1 rows into the layer-2
// input and computes only the missed destinations.
func BatchInferenceCached(model any, blocks []*graph.Block, feats *tensor.Tensor, ec *embcache.Cache) (*tensor.Tensor, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if feats.Rows() != blocks[0].NumSrc {
		return nil, fmt.Errorf("core: feature rows %d != %d input nodes", feats.Rows(), blocks[0].NumSrc)
	}
	tp := tensor.NewTape()
	defer tp.Release() // logits are cloned out below; recycle the arena
	h, err := embcache.Forward(tp, model, blocks, tensor.Leaf(feats), ec)
	if err != nil {
		return nil, err
	}
	return h.Value.Clone(), nil
}
