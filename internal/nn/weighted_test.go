package nn

import (
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// weightedBlock builds a tiny block with explicit edge weights:
// dst0 aggregates src {1, 2} with weights {2, 3}; dst1 aggregates {0} w=0.5.
func weightedBlock(t *testing.T) *graph.Block {
	t.Helper()
	b := &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 2, 3},
		SrcLocal: []int32{1, 2, 0},
		EID:      []int32{-1, -1, -1},
		EdgeWt:   []float32{2, 3, 0.5},
		SrcNID:   []int32{10, 11, 12},
		DstNID:   []int32{10, 11},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func identitySAGE(t *testing.T, agg Aggregator) *SAGEConv {
	t.Helper()
	conv := NewSAGEConv(1, 1, agg, rng.New(1))
	conv.fc.W.Value.Zero()
	conv.fc.W.Value.Set(1, 0, 1) // output = aggregate only
	conv.fc.B.Value.Zero()
	return conv
}

func TestWeightedSumAggregation(t *testing.T) {
	b := weightedBlock(t)
	conv := identitySAGE(t, Sum)
	h := tensor.Leaf(tensor.FromSlice(3, 1, []float32{10, 1, 1}))
	tp := tensor.NewTape()
	out := conv.Forward(tp, b, h, false)
	// dst0: 2*1 + 3*1 = 5; dst1: 0.5*10 = 5
	if out.Value.At(0, 0) != 5 || out.Value.At(1, 0) != 5 {
		t.Fatalf("weighted sums = %v, %v", out.Value.At(0, 0), out.Value.At(1, 0))
	}
}

func TestWeightedMeanDividesByDegree(t *testing.T) {
	b := weightedBlock(t)
	conv := identitySAGE(t, Mean)
	h := tensor.Leaf(tensor.FromSlice(3, 1, []float32{10, 1, 1}))
	tp := tensor.NewTape()
	out := conv.Forward(tp, b, h, false)
	// Eq 1: sum(e*h)/D: dst0 = 5/2 = 2.5, dst1 = 5/1 = 5
	if out.Value.At(0, 0) != 2.5 || out.Value.At(1, 0) != 5 {
		t.Fatalf("weighted means = %v, %v", out.Value.At(0, 0), out.Value.At(1, 0))
	}
}

// Unit weights must be numerically identical to the unweighted fast path.
func TestUnitWeightsMatchUnweighted(t *testing.T) {
	r := rng.New(5)
	unweighted := &graph.Block{
		NumSrc:   4,
		NumDst:   2,
		Ptr:      []int64{0, 3, 4},
		SrcLocal: []int32{1, 2, 3, 0},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{1, 2, 3, 4},
		DstNID:   []int32{1, 2},
	}
	// Blocks carry sync.Once caches and must not be copied; rebuild instead.
	weighted := &graph.Block{
		NumSrc:   4,
		NumDst:   2,
		Ptr:      []int64{0, 3, 4},
		SrcLocal: []int32{1, 2, 3, 0},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{1, 2, 3, 4},
		DstNID:   []int32{1, 2},
		EdgeWt:   []float32{1, 1, 1, 1},
	}

	conv := NewSAGEConv(3, 2, Mean, r)
	h := tensor.Leaf(tensor.New(4, 3))
	h.Value.Randn(r, 1)

	tp1 := tensor.NewTape()
	o1 := conv.Forward(tp1, unweighted, h, false)
	tp2 := tensor.NewTape()
	o2 := conv.Forward(tp2, weighted, h, false)
	for i := range o1.Value.Data {
		if math.Float32bits(o1.Value.Data[i]) != math.Float32bits(o2.Value.Data[i]) {
			t.Fatalf("unit weights diverge at %d: %v vs %v", i, o1.Value.Data[i], o2.Value.Data[i])
		}
	}
}

// Gradients must flow through the weighted path into the inputs.
func TestWeightedAggregationGradients(t *testing.T) {
	b := weightedBlock(t)
	r := rng.New(6)
	conv := NewSAGEConv(2, 2, Sum, r)
	h := tensor.Param(tensor.New(3, 2))
	h.Value.Randn(r, 1)
	tp := tensor.NewTape()
	out := conv.Forward(tp, b, h, false)
	loss := tp.Sum(tp.Mul(out, out))
	tp.Backward(loss)
	if h.Grad == nil {
		t.Fatal("no gradient through the weighted path")
	}
	nonzero := false
	for _, g := range h.Grad.Data {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("gradient is identically zero")
	}
}
