package nn

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// SAGEConv is one GraphSAGE layer: it aggregates neighbor features with the
// configured Aggregator and combines them with the destination's own
// features through a linear transform on the concatenation,
// h'_v = W · [h_v ‖ AGG({h_u : u→v})] + b.
type SAGEConv struct {
	Agg Aggregator
	// fc maps [self ‖ agg], 2*in wide, to out: its first in rows weight
	// the self rows, the rest the aggregate.
	fc *Linear
	// poolFC pre-transforms neighbor features for the Pool aggregator.
	poolFC *Linear
	// lstm is the recurrent aggregator cell (hidden = in, DGL convention).
	lstm *LSTMCell
	in   int
	out  int
}

// NewSAGEConv returns a GraphSAGE layer mapping in features to out features.
func NewSAGEConv(in, out int, agg Aggregator, r *rng.RNG) *SAGEConv {
	c := &SAGEConv{Agg: agg, in: in, out: out, fc: NewLinear(2*in, out, r)}
	switch agg {
	case Pool:
		c.poolFC = NewLinear(in, in, r)
	case LSTM:
		c.lstm = NewLSTMCell(in, in, r)
	}
	return c
}

// Params implements Module.
func (c *SAGEConv) Params() []*tensor.Var {
	ps := c.fc.Params()
	if c.poolFC != nil {
		ps = append(ps, c.poolFC.Params()...)
	}
	if c.lstm != nil {
		ps = append(ps, c.lstm.Params()...)
	}
	return ps
}

// Forward computes the layer on block b. h holds source-node features
// (b.NumSrc rows); the result has b.NumDst rows, passed through ReLU when
// relu is set. Mean and Sum aggregation — weighted or not — run as one
// FusedCSRAgg pass, and the combining linear transform, bias and ReLU as
// one LinearBiasReLU over the self rows and the aggregate as two column
// blocks, so [h_v ‖ AGG] is never built (DESIGN.md §13). Pool and LSTM
// keep their primitive aggregation: learned transforms don't fuse into a
// CSR pass.
func (c *SAGEConv) Forward(tp *tensor.Tape, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	if h.Value.Rows() != b.NumSrc {
		panic(fmt.Sprintf("nn: SAGEConv got %d feature rows for %d sources", h.Value.Rows(), b.NumSrc))
	}
	self := tp.SliceRows(h, 0, b.NumDst) // a view: the destinations lead the sources
	agg := c.aggregate(tp, b, h)
	return tp.LinearBiasReLU(self, agg, c.fc.W, c.fc.B, relu)
}

func (c *SAGEConv) aggregate(tp *tensor.Tape, b *graph.Block, h *tensor.Var) *tensor.Var {
	switch c.Agg {
	case Sum:
		// Table 1's weighted sum: the e_uv factor when the block has weights.
		return tp.FusedCSRAgg(h, blockCSR(b, b.EdgeWt, nil))
	case Mean:
		// Equation 1: SUM(e_uv * h_u / D_v) — the weighted neighbor sum
		// divided by the in-degree (1/deg memoized on the block).
		return tp.FusedCSRAgg(h, blockCSR(b, b.EdgeWt, b.InvInDegree()))
	case Pool:
		src, dst := b.EdgePairs()
		pre := tp.ReLU(c.poolFC.Apply(tp, h))
		msgs := tp.GatherRows(pre, src)
		return tp.SegmentMax(msgs, dst, b.NumDst)
	case LSTM:
		return c.lstmAggregate(tp, b, h)
	default:
		panic(fmt.Sprintf("nn: unknown aggregator %v", c.Agg))
	}
}

// lstmAggregate runs the LSTM cell over each destination's neighbor
// sequence using in-degree bucketing (§4.4.2): destinations with equal
// in-degree form one NodeBatch so each timestep is a dense [B x F] slice.
func (c *SAGEConv) lstmAggregate(tp *tensor.Tape, b *graph.Block, h *tensor.Var) *tensor.Var {
	var pieces *tensor.Var
	for _, bucket := range b.LSTMBuckets() {
		bsz := len(bucket.Nodes)
		hState := tensor.Leaf(tensor.New(bsz, c.in))
		cState := tensor.Leaf(tensor.New(bsz, c.in))
		var hv, cv *tensor.Var = hState, cState
		for t := 0; t < bucket.Deg; t++ {
			x := tp.GatherRows(h, bucket.Steps[t])
			hv, cv = c.lstm.Step(tp, x, hv, cv)
		}
		scattered := tp.ScatterRows(hv, bucket.Nodes, b.NumDst)
		if pieces == nil {
			pieces = scattered
		} else {
			pieces = tp.Add(pieces, scattered)
		}
	}
	if pieces == nil {
		return tensor.Leaf(tensor.New(b.NumDst, c.in))
	}
	return pieces
}

// TapeValues implements BlockLayer. out is the fused linear+bias+ReLU
// (N*O) over the self view and the aggregate; rest is the aggregate: one
// fused gather+sum(+weight, +degree scale) output (N*F) for Mean and Sum;
// the pre-transform's matmul, bias and ReLU (3*S*F), the gathered messages
// (E*F) and their max (N*F) for Pool; and for LSTM, Equation 5 with this
// tape's constant (E*F*lstmStepValues) plus each non-empty degree bucket's
// scatter and the adds joining them ((2*buckets-1)*N*F).
func (c *SAGEConv) TapeValues(b *graph.Block, _, buckets bool) (out, rest int64) {
	n, s, e := int64(b.NumDst), int64(b.NumSrc), int64(b.NumEdges())
	f := int64(c.in)
	switch c.Agg {
	case Pool:
		rest = 3*s*f + e*f + n*f
	case LSTM:
		rest = e * f * lstmStepValues
		if buckets && b.NumEdges() > 0 {
			rest += (2*int64(degreeBuckets(b)) - 1) * n * f
		}
	default:
		rest = n * f
	}
	return n * int64(c.out), rest
}

// degreeBuckets counts the distinct nonzero in-degrees of b's destinations:
// the buckets lstmAggregate runs, counted without building them.
func degreeBuckets(b *graph.Block) int {
	seen := make(map[int]bool)
	for d := 0; d < b.NumDst; d++ {
		if deg := b.InDegree(d); deg > 0 {
			seen[deg] = true
		}
	}
	return len(seen)
}

// GraphSAGE is the multi-layer GraphSAGE model: one SAGEConv per block,
// with ReLU between layers and raw logits at the output.
type GraphSAGE struct {
	Stack[*SAGEConv]
}

// Config describes a GNN model's architecture.
type Config struct {
	// InDim is the input feature dimension, Hidden the width of
	// intermediate layers, OutDim the number of classes.
	InDim, Hidden, OutDim int
	// Layers is the number of graph convolution layers (== blocks consumed).
	Layers int
	// Aggregator selects the SAGE neighbor reduction (ignored by GAT).
	Aggregator Aggregator
	// Heads is the GAT attention head count (ignored by GraphSAGE).
	Heads int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.InDim <= 0 || c.Hidden <= 0 || c.OutDim <= 0 {
		return fmt.Errorf("nn: dimensions must be positive: %+v", c)
	}
	if c.Layers <= 0 {
		return fmt.Errorf("nn: need at least one layer")
	}
	return nil
}

// LayerDims returns the (in, out) dimensions of layer l under cfg.
func (c Config) LayerDims(l int) (in, out int) {
	in = c.Hidden
	if l == 0 {
		in = c.InDim
	}
	out = c.Hidden
	if l == c.Layers-1 {
		out = c.OutDim
	}
	return in, out
}

// NewGraphSAGE builds a GraphSAGE model from cfg.
func NewGraphSAGE(cfg Config, r *rng.RNG) (*GraphSAGE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &GraphSAGE{Stack[*SAGEConv]{cfg: cfg}}
	for l := 0; l < cfg.Layers; l++ {
		in, out := cfg.LayerDims(l)
		m.Layers = append(m.Layers, NewSAGEConv(in, out, cfg.Aggregator, r))
	}
	return m, nil
}
