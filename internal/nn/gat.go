package nn

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// GATConv is one multi-head graph attention layer (Veličković et al.):
// per head, source and destination features are projected with W, edge
// attention logits e_uv = LeakyReLU(aₗ·Wh_u + aᵣ·Wh_v) are softmax-
// normalized over each destination's in-edges, and messages are the
// attention-weighted sum of projected sources. Head outputs are
// concatenated (or averaged on the output layer).
type GATConv struct {
	heads   []*gatHead
	in, out int
	// concat selects concatenation (hidden layers) vs averaging (output).
	concat bool
	// negativeSlope is the LeakyReLU slope for attention logits.
	negativeSlope float32
}

type gatHead struct {
	w    *tensor.Var // in x out
	attL *tensor.Var // out x 1, scores projected sources
	attR *tensor.Var // out x 1, scores projected destinations
}

// NewGATConv returns a GAT layer with the given head count. With
// concat=true the output width is heads*out.
func NewGATConv(in, out, heads int, concat bool, r *rng.RNG) *GATConv {
	c := &GATConv{in: in, out: out, concat: concat, negativeSlope: 0.2}
	for h := 0; h < heads; h++ {
		w := tensor.New(in, out)
		w.XavierInit(r)
		al := tensor.New(out, 1)
		al.XavierInit(r)
		ar := tensor.New(out, 1)
		ar.XavierInit(r)
		c.heads = append(c.heads, &gatHead{
			w:    tensor.Param(w),
			attL: tensor.Param(al),
			attR: tensor.Param(ar),
		})
	}
	return c
}

// Params implements Module.
func (c *GATConv) Params() []*tensor.Var {
	var ps []*tensor.Var
	for _, h := range c.heads {
		ps = append(ps, h.w, h.attL, h.attR)
	}
	return ps
}

// Forward computes the layer on block b; h holds source features. With
// relu set the concatenated (or averaged) head output passes through ReLU.
func (c *GATConv) Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	if h.Value.Rows() != b.NumSrc {
		panic(fmt.Sprintf("nn: GATConv got %d feature rows for %d sources", h.Value.Rows(), b.NumSrc))
	}
	src, dst := b.EdgePairs()
	var outs *tensor.Var
	for _, head := range c.heads {
		z := tp.MatMul(h, head.w)     // numSrc x out
		sL := tp.MatMul(z, head.attL) // numSrc x 1
		sR := tp.MatMul(z, head.attR) // numSrc x 1 (dst are a src prefix)
		eL := tp.GatherRows(sL, src)  // per-edge source score
		eR := tp.GatherRows(sR, dst)  // per-edge destination score
		logits := tp.LeakyReLU(tp.Add(eL, eR), c.negativeSlope)
		alpha := tp.SegmentSoftmax(logits, dst, b.NumDst)
		msgs := tp.MulRowsVec(tp.GatherRows(z, src), alpha)
		agg := tp.SegmentSum(msgs, dst, b.NumDst) // numDst x out
		if outs == nil {
			outs = agg
		} else if c.concat {
			outs = tp.ConcatCols(outs, agg)
		} else {
			outs = tp.Add(outs, agg)
		}
	}
	if !c.concat && len(c.heads) > 1 {
		outs = tp.Scale(outs, 1/float32(len(c.heads)))
	}
	if relu {
		outs = tp.ReLU(outs)
	}
	return outs
}

// GAT is the multi-layer graph attention model: hidden layers concatenate
// their heads and apply ELU-like ReLU; the output layer averages heads.
type GAT struct {
	Stack[*GATConv]
}

// NewGAT builds a GAT model; cfg.Heads defaults to 4 when unset.
func NewGAT(cfg Config, r *rng.RNG) (*GAT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	heads := cfg.Heads
	if heads <= 0 {
		heads = 4
	}
	cfg.Heads = heads
	m := &GAT{Stack[*GATConv]{cfg: cfg}}
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		last := l == cfg.Layers-1
		if last {
			m.Layers = append(m.Layers, NewGATConv(in, cfg.OutDim, heads, false, r))
		} else {
			m.Layers = append(m.Layers, NewGATConv(in, cfg.Hidden, heads, true, r))
			in = cfg.Hidden * heads
		}
	}
	return m, nil
}

// AggParamCount counts attention parameters (the per-head score vectors),
// the analogue of NP_Agg for GAT.
func (m *GAT) AggParamCount() int {
	total := 0
	for _, l := range m.Layers {
		for _, h := range l.heads {
			total += h.attL.Value.Len() + h.attR.Value.Len()
		}
	}
	return total
}
