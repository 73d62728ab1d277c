package core

import (
	"fmt"

	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// BatchInference runs one forward pass of model over an input-first block
// list and returns the logits for the last block's destinations as a fresh
// tensor (one row per destination, in DstNID order). No gradients are
// recorded and all intermediates are recycled before returning.
//
// Every path applies the same per-layer step, nn.ApplyBlockLayer: training
// (train.Runner.RunMicroBatch) and evaluation through the model's Forward
// (nn.Stack), offline inference (LayerwiseInference) one layer at a time,
// and the online serving path (internal/serve) through here — the op
// sequence is identical in all cases, so predictions are bitwise equal
// across the three paths.
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

// LayerwiseInference computes the model's outputs for every node of the
// graph, one layer at a time in node chunks — the standard offline GNN
// inference pattern (DGL's inference loop): instead of sampling a deep
// neighborhood per output (whose cost explodes with depth), each layer is
// computed for all nodes from the previous layer's full output, bounding
// memory by the chunk size.
//
// feats holds the input features for all g.NumNodes() nodes. The returned
// tensor has one output row per node. No gradients are recorded.
func LayerwiseInference(model any, g *graph.Graph, feats *tensor.Tensor, chunk int) (*tensor.Tensor, error) {
	layers, err := nn.LayerStack(model)
	if err != nil {
		return nil, err
	}
	if int32(feats.Rows()) != g.NumNodes() {
		return nil, fmt.Errorf("core: feature rows %d != %d nodes", feats.Rows(), g.NumNodes())
	}
	if chunk <= 0 {
		chunk = 1024
	}
	n := int(g.NumNodes())
	cur := feats
	for li, layer := range layers {
		var out *tensor.Tensor
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			seeds := make([]int32, hi-lo)
			for i := range seeds {
				seeds[i] = int32(lo + i)
			}
			blocks, err := sample.SampleFull(g, seeds, 1)
			if err != nil {
				return nil, err
			}
			b := blocks[0]
			h := tensor.New(b.NumSrc, cur.Cols())
			for i, nid := range b.SrcNID {
				copy(h.Row(i), cur.Row(int(nid)))
			}
			tp := tensor.NewTape()
			res := nn.ApplyBlockLayer(tp, layer, b, tensor.Leaf(h), li == len(layers)-1)
			if out == nil {
				out = tensor.New(n, res.Value.Cols())
			}
			for i := 0; i < res.Value.Rows(); i++ {
				copy(out.Row(lo+i), res.Value.Row(i))
			}
			tp.Release() // rows copied out; recycle the chunk's arena
		}
		cur = out
	}
	return cur, nil
}

// InferAccuracy runs layer-wise inference and scores the predictions on
// the given node set.
func InferAccuracy(model any, g *graph.Graph, feats *tensor.Tensor, labels []int32, nodes []int32, chunk int) (float64, error) {
	logits, err := LayerwiseInference(model, g, feats, chunk)
	if err != nil {
		return 0, err
	}
	if len(nodes) == 0 {
		return 0, fmt.Errorf("core: no nodes to score")
	}
	pred := tensor.Argmax(logits)
	correct := 0
	for _, v := range nodes {
		if pred[v] == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(nodes)), nil
}
