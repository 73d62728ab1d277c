package embcache

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/tensor"
)

// Forward runs a layer-wise forward pass over blocks, consulting the
// cache for layer-1 rows. The cache key space is blocks[0].DstNID: layer-1
// destinations are exactly the layer-2 source frontier, so a cached row
// splices directly into the layer-2 input.
//
//   - nil / off cache: plain per-layer application, op-for-op identical to
//     the model's own Forward.
//   - reuse: hit rows are spliced in as constants and only the missed
//     destinations are computed, on the destination-restricted sub-block.
//     Under fixed weights and node-wise sampling a hit row is bitwise the
//     row it replaces, so outputs match the off path too.
func Forward(tp *tensor.Tape, model any, blocks []*graph.Block, x *tensor.Var, c *Cache) (*tensor.Var, error) {
	layers, err := nn.LayerStack(model)
	if err != nil {
		return nil, err
	}
	if len(layers) != len(blocks) {
		return nil, fmt.Errorf("embcache: %d blocks for %d layers", len(blocks), len(layers))
	}
	start := 0
	h := x
	if c.Active() && len(layers) >= 2 {
		h, err = forwardLayer1(tp, layers[0], blocks[0], x, c)
		if err != nil {
			return nil, err
		}
		start = 1
	}
	for l := start; l < len(layers); l++ {
		h = layers[l].Forward(tp, blocks[l], h, l < len(layers)-1)
	}
	return h, nil
}

// forwardLayer1 produces the layer-1 output (always non-last, so the
// inter-layer ReLU is applied) through the cache. The one lookup is
// FetchInto, which does all hit/miss counting; a cache that has stored no
// row yet has nothing to look up, so a cold forward counts neither.
func forwardLayer1(tp *tensor.Tape, layer nn.BlockLayer, b *graph.Block, x *tensor.Var, c *Cache) (*tensor.Var, error) {
	// Fetch what the cache has directly into a leaf tensor whose miss rows
	// stay zero; they are filled by the scattered sub-block compute below.
	var hitRows *tensor.Tensor
	var hit []bool
	hits := 0
	if dim := c.Dim(); dim > 0 {
		hitRows = tensor.New(b.NumDst, dim)
		hit, hits = c.FetchInto(b.DstNID, hitRows.Row)
	}
	if hits > 0 && hits == b.NumDst {
		return tensor.Leaf(hitRows), nil
	}
	if hits == 0 {
		h1 := layer.Forward(tp, b, x, true)
		c.reg.Add("embcache.computed_rows", int64(b.NumDst))
		if err := c.Store(b.DstNID, h1.Value); err != nil {
			return nil, err
		}
		return h1, nil
	}

	// Partial hit: compute only the missed destinations on the restricted
	// sub-block. Per-row stability makes these rows bitwise equal to the
	// full-block rows; the splice is Add(scattered misses, leaf hits),
	// exact because the disjoint counterpart rows are +0.0 (layer-1
	// output is post-ReLU, so no -0.0 can make 0+x differ from x).
	keep := make([]int32, 0, b.NumDst-hits)
	for i := 0; i < b.NumDst; i++ {
		if !hit[i] {
			keep = append(keep, int32(i))
		}
	}
	sub, srcSel, err := graph.SliceBlock(b, keep)
	if err != nil {
		return nil, err
	}
	xs := tp.GatherRows(x, srcSel)
	hm := layer.Forward(tp, sub, xs, true)
	c.reg.Add("embcache.computed_rows", int64(len(keep)))
	c.reg.Add("embcache.partial_hits", 1)
	if err := c.Store(sub.DstNID, hm.Value); err != nil {
		return nil, err
	}
	return tp.Add(tp.ScatterRows(hm, keep, b.NumDst), tensor.Leaf(hitRows)), nil
}
