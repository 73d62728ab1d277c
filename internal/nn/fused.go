package nn

import (
	"fmt"
	"sync/atomic"

	"betty/internal/graph"
	"betty/internal/tensor"
)

// The fused kernel tier (DESIGN.md §13) is on by default: layer forwards go
// through tensor.FusedCSRAgg and tensor.LinearBiasReLU instead of the
// primitive-op chains. Fusion is bitwise-exact — the per-op and end-to-end
// equivalence tests pin fused and unfused paths to identical bytes, using
// SetFused(false) as the reference arm.

var fusedOn atomic.Bool

func init() { fusedOn.Store(true) }

// FusedEnabled reports whether the fused kernel tier is active.
func FusedEnabled() bool { return fusedOn.Load() }

// SetFused switches the fused kernel tier on or off and returns the
// previous setting:
//
//	defer nn.SetFused(nn.SetFused(false))
func SetFused(on bool) bool { return fusedOn.Swap(on) }

// blockCSR assembles the tensor.CSR view of block b from its memoized
// derived views — per-edge endpoint slices, the source inverse for the
// backward scatter-add, optionally the block edge weights and the
// mean-aggregation 1/deg post-scale. Everything is cached on the block, so
// building the struct on the hot path allocates nothing.
func blockCSR(b *graph.Block, weighted, mean bool) tensor.CSR {
	src, dst := b.EdgePairs()
	cnt, pos := b.SrcInverse()
	c := tensor.CSR{Src: src, Dst: dst, InvCnt: cnt, InvPos: pos, NSrc: b.NumSrc, NDst: b.NumDst}
	if weighted {
		c.Wt = b.EdgeWt
	}
	if mean {
		c.InvDeg = b.InvInDegree()
	}
	return c
}

// ApplyFused computes ReLU(x @ W + b) — or x @ W + b when relu is false —
// through the fused kernel.
func (l *Linear) ApplyFused(tp *tensor.Tape, x *tensor.Var, relu bool) *tensor.Var {
	return tp.LinearBiasReLU(x, l.W, l.B, relu)
}

// ForwardFused computes the SAGE layer through the fused kernel tier,
// folding the inter-layer ReLU (relu=true for every layer but the model's
// last) into the combining linear transform. Mean and Sum aggregation —
// weighted or not — collapse into one FusedCSRAgg pass; Pool and LSTM keep
// their primitive aggregation (learned transforms don't fuse into a CSR
// pass) but still use the fused linear. Values and gradients are bitwise
// identical to Forward + ReLU.
func (c *SAGEConv) ForwardFused(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	if h.Value.Rows() != b.NumSrc {
		panic(fmt.Sprintf("nn: SAGEConv got %d feature rows for %d sources", h.Value.Rows(), b.NumSrc))
	}
	self := tp.SliceRows(h, 0, b.NumDst)
	var agg *tensor.Var
	switch c.Agg {
	case Sum:
		agg = tp.FusedCSRAgg(h, blockCSR(b, b.EdgeWt != nil, false))
	case Mean:
		agg = tp.FusedCSRAgg(h, blockCSR(b, b.EdgeWt != nil, true))
	default:
		agg = c.aggregate(tp, b, h)
	}
	return c.fc.ApplyFused(tp, tp.ConcatCols(self, agg), relu)
}

// ForwardFused computes the GCN layer through the fused kernel tier: the
// destination normalization rides in FusedCSRAgg's post-scale slot instead
// of a separate RowScale pass, and the combining linear fuses bias and the
// inter-layer ReLU. Edge weights are never applied — the unfused GCN
// ignores them too (its coefficients are purely degree-derived).
func (c *GCNConv) ForwardFused(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	if h.Value.Rows() != b.NumSrc {
		panic(fmt.Sprintf("nn: GCNConv got %d feature rows for %d sources", h.Value.Rows(), b.NumSrc))
	}
	srcScale := make([]float32, b.NumSrc)
	for i, nid := range b.SrcNID {
		srcScale[i] = c.invSqrtDeg[nid]
	}
	hn := tp.RowScale(h, srcScale)
	csr := blockCSR(b, false, false)
	csr.InvDeg = srcScale[:b.NumDst]
	agg := tp.FusedCSRAgg(hn, csr)
	self := tp.RowScale(tp.SliceRows(hn, 0, b.NumDst), srcScale[:b.NumDst])
	summed := tp.Add(agg, self)
	return c.fc.ApplyFused(tp, summed, relu)
}
