package nn

import (
	"fmt"
	"math"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// GCNConv is a graph convolution layer (Kipf & Welling) with symmetric
// degree normalization — Table 1's Sum layer with c_uv = 1/√(d̂_u·d̂_v)
// edge coefficients and an implicit self loop:
//
//	h'_v = W · ( Σ_{u→v} h_u/√(d̂_u·d̂_v) + h_v/d̂_v ) + b
//
// where d̂ is the raw-graph in-degree plus one. The degrees come from the
// full graph, not the sampled block, matching how GCN is defined on the
// underlying graph.
type GCNConv struct {
	fc *Linear
	// invSqrtDeg[v] = 1/sqrt(inDegree(v)+1) indexed by global node ID.
	invSqrtDeg []float32
	in, out    int
}

// NewGCNConv returns a GCN layer; degrees are taken from g.
func NewGCNConv(g *graph.Graph, in, out int, r *rng.RNG) *GCNConv {
	inv := make([]float32, g.NumNodes())
	for v := int32(0); v < g.NumNodes(); v++ {
		inv[v] = float32(1 / math.Sqrt(float64(g.InDegree(v))+1))
	}
	return &GCNConv{fc: NewLinear(in, out, r), invSqrtDeg: inv, in: in, out: out}
}

// Params implements Module.
func (c *GCNConv) Params() []*tensor.Var { return c.fc.Params() }

// Forward computes the layer on block b; h holds source features. The
// destination normalization rides in FusedCSRAgg's post-scale slot, and
// the combining linear transform fuses bias and, when relu is set, the
// inter-layer ReLU. Edge weights are never applied: the coefficients are
// purely degree-derived.
func (c *GCNConv) Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	if h.Value.Rows() != b.NumSrc {
		panic(fmt.Sprintf("nn: GCNConv got %d feature rows for %d sources", h.Value.Rows(), b.NumSrc))
	}
	// scale sources by 1/sqrt(d̂_u)
	srcScale := make([]float32, b.NumSrc)
	for i, nid := range b.SrcNID {
		srcScale[i] = c.invSqrtDeg[nid]
	}
	hn := tp.RowScale(h, srcScale)
	// neighbor sum, then destination normalization 1/sqrt(d̂_v)
	agg := tp.FusedCSRAgg(hn, blockCSR(b, nil, srcScale[:b.NumDst]))
	// self loop: h_v / d̂_v = (h_v/√d̂_v) * 1/√d̂_v
	self := tp.RowScale(tp.SliceRows(hn, 0, b.NumDst), srcScale[:b.NumDst])
	return tp.LinearBiasReLU(tp.Add(agg, self), nil, c.fc.W, c.fc.B, relu)
}

// TapeValues implements BlockLayer. out is the fused linear+bias+ReLU
// (N*O); rest is the source scaling (S*F), the fused normalized sum (N*F),
// the scale of the self view (N*F) and the add (N*F).
func (c *GCNConv) TapeValues(b *graph.Block, _, _ bool) (out, rest int64) {
	n, f := int64(b.NumDst), int64(c.in)
	return n * int64(c.out), int64(b.NumSrc)*f + 3*n*f
}

// GCN is the multi-layer graph convolutional network.
type GCN struct {
	Stack[*GCNConv]
}

// NewGCN builds a GCN over graph g from cfg (the Aggregator field is
// ignored; GCN always uses the normalized sum).
func NewGCN(g *graph.Graph, cfg Config, r *rng.RNG) (*GCN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &GCN{Stack[*GCNConv]{cfg: cfg}}
	for l := 0; l < cfg.Layers; l++ {
		in, out := cfg.LayerDims(l)
		m.Layers = append(m.Layers, NewGCNConv(g, in, out, r))
	}
	return m, nil
}
