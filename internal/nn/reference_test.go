package nn

import (
	"fmt"
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/parallel"
	"betty/internal/rng"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// The layer forwards run through the fused kernel tier (DESIGN.md §13).
// These references spell out the primitive-op chains each fused forward
// stands in for; TestLayerForwardMatchesPrimitiveChain holds the two to the
// same bytes.

// linearRef is the combining linear transform: MatMul → AddBias (Apply),
// then ReLU.
func linearRef(tp *tensor.Tape, x *tensor.Var, fc *Linear, relu bool) *tensor.Var {
	out := fc.Apply(tp, x)
	if relu {
		out = tp.ReLU(out)
	}
	return out
}

// sageRef is SAGEConv.Forward for Mean and Sum as primitive ops: slice the
// destinations' own rows, gather the source rows, weight them when the
// block has edge weights, segment-sum per destination, scale by 1/deg for
// Mean, then concatenate and combine.
func sageRef(tp *tensor.Tape, c *SAGEConv, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	// The self slice is recorded first, as in Forward: the input gradient
	// then accumulates the neighbor terms before the self term.
	self := tp.SliceRows(h, 0, b.NumDst)
	src, dst := b.EdgePairs()
	msgs := tp.GatherRows(h, src)
	if b.EdgeWt != nil {
		msgs = tp.MulRowsVec(msgs, tensor.Leaf(tensor.FromSlice(len(b.EdgeWt), 1, b.EdgeWt)))
	}
	agg := tp.SegmentSum(msgs, dst, b.NumDst)
	if c.Agg == Mean {
		agg = tp.RowScale(agg, b.InvInDegree())
	}
	return linearRef(tp, tp.ConcatCols(self, agg), c.fc, relu)
}

// gcnRef is GCNConv.Forward as primitive ops: scale sources by 1/√d̂_u,
// segment-sum the gathered neighbors, scale the sum by 1/√d̂_v, add the
// doubly scaled self row, then combine. Edge weights are ignored.
func gcnRef(tp *tensor.Tape, c *GCNConv, b *graph.Block, h *tensor.Var, relu bool) *tensor.Var {
	srcScale := make([]float32, b.NumSrc)
	for i, nid := range b.SrcNID {
		srcScale[i] = c.invSqrtDeg[nid]
	}
	hn := tp.RowScale(h, srcScale)
	src, dst := b.EdgePairs()
	agg := tp.RowScale(tp.SegmentSum(tp.GatherRows(hn, src), dst, b.NumDst), srcScale[:b.NumDst])
	self := tp.RowScale(tp.SliceRows(hn, 0, b.NumDst), srcScale[:b.NumDst])
	return linearRef(tp, tp.Add(agg, self), c.fc, relu)
}

// referenceGraph is a random graph large enough that a sampled block's
// segment and row kernels split into several shards at 8 workers.
func referenceGraph(t *testing.T, weighted bool) *graph.Graph {
	t.Helper()
	const n, m = 4000, 60000
	r := rng.New(21)
	src := make([]int32, m)
	dst := make([]int32, m)
	for i := range src {
		src[i] = r.Int31n(n)
		dst[i] = r.Int31n(n)
	}
	var w []float32
	if weighted {
		w = make([]float32, m)
		for i := range w {
			w[i] = float32(r.Float64()) + 0.25
		}
	}
	g, err := graph.FromEdgesWeighted(n, src, dst, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runLayer forwards one layer on a fresh tape, backpropagates a fixed
// random upstream gradient, and returns the output values followed by the
// input gradient and every parameter gradient.
func runLayer(layer Module, in int, b *graph.Block, fwd func(*tensor.Tape, *tensor.Var) *tensor.Var) []float32 {
	ZeroGrad(layer)
	r := rng.New(22)
	h := tensor.Param(tensor.New(b.NumSrc, in))
	h.Value.Randn(r, 1)
	tp := tensor.NewTape()
	defer tp.Release()
	out := fwd(tp, h)
	up := tensor.New(out.Value.Rows(), out.Value.Cols())
	up.Randn(r, 1)
	tp.Backward(tp.Sum(tp.Mul(out, tensor.Leaf(up))))
	got := append([]float32(nil), out.Value.Data...)
	got = append(got, h.Grad.Data...)
	for _, p := range layer.Params() {
		got = append(got, p.Grad.Data...)
	}
	return got
}

// TestLayerForwardMatchesPrimitiveChain pins SAGE Mean/Sum and GCN Forward
// to their primitive-op chains: values, input gradients and parameter
// gradients agree bitwise, on unweighted and edge-weighted blocks, with and
// without the inter-layer ReLU, at 1 and 8 workers.
func TestLayerForwardMatchesPrimitiveChain(t *testing.T) {
	const in, out = 16, 8
	for _, weighted := range []bool{false, true} {
		g := referenceGraph(t, weighted)
		seeds := make([]int32, 2000)
		for i := range seeds {
			seeds[i] = int32(2 * i)
		}
		blocks, err := sample.New([]int{10}, 3).Sample(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		b := blocks[0]
		if weighted != (b.EdgeWt != nil) {
			t.Fatalf("weighted=%v graph sampled a block with EdgeWt=%v", weighted, b.EdgeWt != nil)
		}
		mean := NewSAGEConv(in, out, Mean, rng.New(23))
		sum := NewSAGEConv(in, out, Sum, rng.New(24))
		gcn := NewGCNConv(g, in, out, rng.New(25))
		cases := []struct {
			name  string
			layer BlockLayer
			ref   func(*tensor.Tape, *tensor.Var, bool) *tensor.Var
		}{
			{"sage-mean", mean, func(tp *tensor.Tape, h *tensor.Var, relu bool) *tensor.Var { return sageRef(tp, mean, b, h, relu) }},
			{"sage-sum", sum, func(tp *tensor.Tape, h *tensor.Var, relu bool) *tensor.Var { return sageRef(tp, sum, b, h, relu) }},
			{"gcn", gcn, func(tp *tensor.Tape, h *tensor.Var, relu bool) *tensor.Var { return gcnRef(tp, gcn, b, h, relu) }},
		}
		for _, c := range cases {
			for _, relu := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/weighted=%v/relu=%v", c.name, weighted, relu), func(t *testing.T) {
					defer parallel.SetWorkers(parallel.SetWorkers(1))
					want := runLayer(c.layer, in, b, func(tp *tensor.Tape, h *tensor.Var) *tensor.Var { return c.ref(tp, h, relu) })
					for _, w := range []int{1, 8} {
						parallel.SetWorkers(w)
						got := runLayer(c.layer, in, b, func(tp *tensor.Tape, h *tensor.Var) *tensor.Var {
							return c.layer.Forward(tp, b, h, relu)
						})
						if len(got) != len(want) {
							t.Fatalf("workers=%d: %d floats, reference %d", w, len(got), len(want))
						}
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("workers=%d: float %d is %v, reference chain %v", w, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}
