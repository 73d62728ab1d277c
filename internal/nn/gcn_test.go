package nn

import (
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// gcnGraph: node 0 with in-edges from 1 and 2; node 1 with in-edge from 2.
func gcnGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(3, []int32{1, 2, 2}, []int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gcnBlock: full 1-hop neighborhood of {0, 1} in gcnGraph.
func gcnBlock(t *testing.T) *graph.Block {
	t.Helper()
	b := &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 2, 3},
		SrcLocal: []int32{1, 2, 2},
		EID:      []int32{0, 1, 2},
		SrcNID:   []int32{0, 1, 2},
		DstNID:   []int32{0, 1},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGCNConvHandComputed(t *testing.T) {
	g := gcnGraph(t)
	conv := NewGCNConv(g, 1, 1, rng.New(1))
	// identity transform for checkability
	conv.fc.W.Value.Set(0, 0, 1)
	conv.fc.B.Value.Zero()

	// in-degrees: node0=2, node1=1, node2=0 -> d̂ = 3, 2, 1
	h := tensor.Leaf(tensor.FromSlice(3, 1, []float32{6, 4, 2}))
	tp := tensor.NewTape()
	out := conv.Forward(tp, gcnBlock(t), h, false)

	s0 := 1 / math.Sqrt(3)
	s1 := 1 / math.Sqrt(2)
	s2 := 1.0
	// dst0: (h1*s1 + h2*s2)*s0 + h0*s0*s0 = (4*s1 + 2)*s0 + 6/3
	want0 := (4*s1+2*s2)*s0 + 6*s0*s0
	// dst1: (h2*s2)*s1 + h1*s1*s1 = 2*s1 + 4/2
	want1 := 2*s2*s1 + 4*s1*s1
	if math.Abs(float64(out.Value.At(0, 0))-want0) > 1e-5 {
		t.Fatalf("dst0 = %v, want %v", out.Value.At(0, 0), want0)
	}
	if math.Abs(float64(out.Value.At(1, 0))-want1) > 1e-5 {
		t.Fatalf("dst1 = %v, want %v", out.Value.At(1, 0), want1)
	}
}

func TestGCNModel(t *testing.T) {
	g := gcnGraph(t)
	r := rng.New(2)
	m, err := NewGCN(g, Config{InDim: 4, Hidden: 8, OutDim: 3, Layers: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	// W and b per layer, no aggregator parameters
	if ParamCount(m) != 4*8+8+8*3+3 {
		t.Fatalf("param count = %d", ParamCount(m))
	}
	// a 2-layer batch over the tiny graph: reuse the 1-hop block twice is
	// invalid (chaining), so build inner over the outer's sources
	outer := gcnBlock(t)
	inner := &graph.Block{
		NumSrc:   3,
		NumDst:   3,
		Ptr:      []int64{0, 2, 3, 3},
		SrcLocal: []int32{1, 2, 2},
		EID:      []int32{0, 1, 2},
		SrcNID:   []int32{0, 1, 2},
		DstNID:   []int32{0, 1, 2},
	}
	if err := inner.Validate(); err != nil {
		t.Fatal(err)
	}
	x := tensor.Param(tensor.New(3, 4))
	x.Value.Randn(r, 1)
	tp := tensor.NewTape()
	logits := m.Forward(tp, []*graph.Block{inner, outer}, x)
	if logits.Value.Rows() != 2 || logits.Value.Cols() != 3 {
		t.Fatalf("logits %dx%d", logits.Value.Rows(), logits.Value.Cols())
	}
	loss := tp.SoftmaxCrossEntropy(logits, []int32{0, 1})
	tp.Backward(loss)
	for i, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d got no gradient", i)
		}
	}
}

func TestGCNConfigValidation(t *testing.T) {
	g := gcnGraph(t)
	if _, err := NewGCN(g, Config{InDim: 0, Hidden: 1, OutDim: 1, Layers: 1}, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
