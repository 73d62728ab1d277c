package nn

import (
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// testBlock returns a small block: 3 destinations with degrees 2, 1, 0 over
// 5 sources.
func testBlock(t *testing.T) *graph.Block {
	b := &graph.Block{
		NumSrc:   5,
		NumDst:   3,
		Ptr:      []int64{0, 2, 3, 3},
		SrcLocal: []int32{3, 4, 0, 0},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{10, 11, 12, 13, 14},
		DstNID:   []int32{10, 11, 12},
	}
	b.Ptr = []int64{0, 2, 3, 3}
	b.SrcLocal = []int32{3, 4, 0}
	b.EID = []int32{-1, -1, -1}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLinear(t *testing.T) {
	r := rng.New(1)
	l := NewLinear(4, 3, r)
	if ParamCount(l) != 4*3+3 {
		t.Fatalf("param count = %d", ParamCount(l))
	}
	x := tensor.Leaf(tensor.New(2, 4))
	x.Value.Randn(r, 1)
	tp := tensor.NewTape()
	y := l.Apply(tp, x)
	if y.Value.Rows() != 2 || y.Value.Cols() != 3 {
		t.Fatalf("bad output shape %dx%d", y.Value.Rows(), y.Value.Cols())
	}
}

func TestLSTMCellShapesAndGradient(t *testing.T) {
	r := rng.New(2)
	c := NewLSTMCell(3, 3, r)
	// forget bias initialized to 1
	if c.B.Value.At(0, 3) != 1 || c.B.Value.At(0, 0) != 0 {
		t.Fatal("forget-gate bias not initialized")
	}
	x := tensor.Leaf(tensor.New(2, 3))
	x.Value.Randn(r, 1)

	build := func(tp *tensor.Tape) *tensor.Var {
		h := tensor.Leaf(tensor.New(2, 3))
		cs := tensor.Leaf(tensor.New(2, 3))
		var hv, cv *tensor.Var = h, cs
		for step := 0; step < 2; step++ {
			hv, cv = c.Step(tp, x, hv, cv)
		}
		return tp.Sum(tp.Mul(hv, hv))
	}
	tp := tensor.NewTape()
	loss := build(tp)
	tp.Backward(loss)
	// finite-difference check a few entries of Wx
	const eps = 1e-3
	for _, idx := range []int{0, 5, 11} {
		orig := c.Wx.Value.Data[idx]
		c.Wx.Value.Data[idx] = orig + eps
		lp := float64(build(tensor.NewTape()).Value.Data[0])
		c.Wx.Value.Data[idx] = orig - eps
		lm := float64(build(tensor.NewTape()).Value.Data[0])
		c.Wx.Value.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(c.Wx.Grad.Data[idx])
		if math.Abs(want-got) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("Wx[%d]: analytic %v vs numeric %v", idx, got, want)
		}
	}
}

func TestSAGEConvMeanMatchesHandComputation(t *testing.T) {
	r := rng.New(3)
	b := testBlock(t)
	conv := NewSAGEConv(2, 2, Mean, r)
	// identity-ish weights for checkability: W = [[I],[I]] stacked
	conv.fc.W.Value.Zero()
	for i := 0; i < 2; i++ {
		conv.fc.W.Value.Set(i, i, 1)   // self part
		conv.fc.W.Value.Set(2+i, i, 1) // aggregate part
	}
	conv.fc.B.Value.Zero()

	h := tensor.Leaf(tensor.FromSlice(5, 2, []float32{
		1, 0,
		0, 1,
		1, 1,
		2, 2,
		4, 4,
	}))
	tp := tensor.NewTape()
	out := conv.Forward(tp, b, h, false)
	// dst0: self (1,0) + mean((2,2),(4,4)) = (1,0)+(3,3) = (4,3)
	if !almostEq(float64(out.Value.At(0, 0)), 4, 1e-5) || !almostEq(float64(out.Value.At(0, 1)), 3, 1e-5) {
		t.Fatalf("dst0 = (%v,%v), want (4,3)", out.Value.At(0, 0), out.Value.At(0, 1))
	}
	// dst1: self (0,1) + mean((1,0)) = (1,1)
	if !almostEq(float64(out.Value.At(1, 0)), 1, 1e-5) || !almostEq(float64(out.Value.At(1, 1)), 1, 1e-5) {
		t.Fatalf("dst1 = (%v,%v), want (1,1)", out.Value.At(1, 0), out.Value.At(1, 1))
	}
	// dst2 has no neighbors: just self (1,1)
	if !almostEq(float64(out.Value.At(2, 0)), 1, 1e-5) || !almostEq(float64(out.Value.At(2, 1)), 1, 1e-5) {
		t.Fatalf("dst2 = (%v,%v), want (1,1)", out.Value.At(2, 0), out.Value.At(2, 1))
	}
}

func TestSAGEConvAllAggregatorsRun(t *testing.T) {
	b := testBlock(t)
	for _, agg := range []Aggregator{Mean, Sum, Pool, LSTM} {
		r := rng.New(4)
		conv := NewSAGEConv(2, 3, agg, r)
		h := tensor.Param(tensor.New(5, 2))
		h.Value.Randn(r, 1)
		tp := tensor.NewTape()
		out := conv.Forward(tp, b, h, false)
		if out.Value.Rows() != 3 || out.Value.Cols() != 3 {
			t.Fatalf("%v: bad shape %dx%d", agg, out.Value.Rows(), out.Value.Cols())
		}
		loss := tp.Sum(tp.Mul(out, out))
		tp.Backward(loss)
		for _, p := range conv.fc.Params() {
			if p.Grad == nil {
				t.Fatalf("%v: fc params got no gradient", agg)
			}
		}
		if h.Grad == nil {
			t.Fatalf("%v: input features got no gradient", agg)
		}
	}
}

func TestSAGEConvParamAccounting(t *testing.T) {
	r := rng.New(5)
	mean := NewSAGEConv(4, 8, Mean, r)
	pool := NewSAGEConv(4, 8, Pool, r)
	lstm := NewSAGEConv(4, 8, LSTM, r)
	base := 2*4*8 + 8 // fc: (2*in) x out + bias
	if ParamCount(mean) != base {
		t.Fatalf("mean params = %d, want %d", ParamCount(mean), base)
	}
	if ParamCount(pool) != base+4*4+4 {
		t.Fatalf("pool params = %d", ParamCount(pool))
	}
	wantLSTM := base + 4*16 + 4*16 + 16 // Wx + Wh + b with hidden=in=4
	if ParamCount(lstm) != wantLSTM {
		t.Fatalf("lstm params = %d, want %d", ParamCount(lstm), wantLSTM)
	}
	if len(mean.AggParams()) != 0 || len(pool.AggParams()) != 2 || len(lstm.AggParams()) != 3 {
		t.Fatal("AggParams counts wrong")
	}
}

// LSTM aggregation with in-degree bucketing must give every destination
// with neighbors a nonzero aggregate and leave isolated destinations zero.
func TestLSTMAggregationBucketing(t *testing.T) {
	r := rng.New(6)
	b := testBlock(t) // degrees 2, 1, 0
	conv := NewSAGEConv(2, 2, LSTM, r)
	h := tensor.Leaf(tensor.New(5, 2))
	h.Value.Randn(r, 1)
	tp := tensor.NewTape()
	agg := conv.lstmAggregate(tp, b, h)
	if agg.Value.Rows() != 3 {
		t.Fatalf("agg rows = %d", agg.Value.Rows())
	}
	// dst2 (degree 0) must be exactly zero
	if agg.Value.At(2, 0) != 0 || agg.Value.At(2, 1) != 0 {
		t.Fatal("isolated destination has nonzero LSTM aggregate")
	}
	// dst0 and dst1 should be nonzero almost surely
	nz := math.Abs(float64(agg.Value.At(0, 0))) + math.Abs(float64(agg.Value.At(1, 0)))
	if nz == 0 {
		t.Fatal("LSTM aggregate suspiciously zero")
	}
}

func TestGraphSAGEConfigValidation(t *testing.T) {
	r := rng.New(7)
	if _, err := NewGraphSAGE(Config{InDim: 0, Hidden: 4, OutDim: 2, Layers: 1}, r); err == nil {
		t.Fatal("zero InDim accepted")
	}
	if _, err := NewGraphSAGE(Config{InDim: 4, Hidden: 4, OutDim: 2, Layers: 0}, r); err == nil {
		t.Fatal("zero layers accepted")
	}
}

func TestLayerDims(t *testing.T) {
	c := Config{InDim: 10, Hidden: 16, OutDim: 3, Layers: 3}
	cases := [][3]int{{0, 10, 16}, {1, 16, 16}, {2, 16, 3}}
	for _, tc := range cases {
		in, out := c.LayerDims(tc[0])
		if in != tc[1] || out != tc[2] {
			t.Fatalf("layer %d dims (%d,%d), want (%d,%d)", tc[0], in, out, tc[1], tc[2])
		}
	}
	one := Config{InDim: 10, Hidden: 16, OutDim: 3, Layers: 1}
	in, out := one.LayerDims(0)
	if in != 10 || out != 3 {
		t.Fatalf("single layer dims (%d,%d)", in, out)
	}
}

// buildTwoLayerBatch samples a 2-layer full batch from a random graph.
func buildTwoLayerBatch(t *testing.T, seed uint64) (*graph.Graph, []*graph.Block) {
	t.Helper()
	r := rng.New(seed)
	n := int32(60)
	var src, dst []int32
	for i := 0; i < 500; i++ {
		src = append(src, r.Int31n(n))
		dst = append(dst, r.Int31n(n))
	}
	g, err := graph.FromEdges(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	blocks := fullBatch(t, g, seeds, 2)
	return g, blocks
}

// fullBatch expands seeds with full neighborhoods for the given layers.
func fullBatch(t *testing.T, g *graph.Graph, seeds []int32, layers int) []*graph.Block {
	t.Helper()
	blocks := make([]*graph.Block, layers)
	frontier := seeds
	for l := layers - 1; l >= 0; l-- {
		local := map[int32]int32{}
		srcNID := append([]int32(nil), frontier...)
		for i, v := range frontier {
			local[v] = int32(i)
		}
		b := &graph.Block{NumDst: len(frontier), DstNID: append([]int32(nil), frontier...), Ptr: make([]int64, 1, len(frontier)+1)}
		for _, v := range frontier {
			ss, es := g.InNeighbors(v)
			for i, u := range ss {
				li, ok := local[u]
				if !ok {
					li = int32(len(srcNID))
					local[u] = li
					srcNID = append(srcNID, u)
				}
				b.SrcLocal = append(b.SrcLocal, li)
				b.EID = append(b.EID, es[i])
			}
			b.Ptr = append(b.Ptr, int64(len(b.SrcLocal)))
		}
		b.SrcNID = srcNID
		b.NumSrc = len(srcNID)
		blocks[l] = b
		frontier = srcNID
	}
	return blocks
}

// The core Betty correctness property at the model level: the accumulated,
// fraction-scaled gradients of sliced micro-batches equal the full-batch
// gradient, for a real 2-layer GraphSAGE on real blocks.
func TestMicroBatchGradientEquivalenceGNN(t *testing.T) {
	_, blocks := buildTwoLayerBatch(t, 11)
	r := rng.New(12)
	model, err := NewGraphSAGE(Config{InDim: 4, Hidden: 5, OutDim: 3, Layers: 2, Aggregator: Mean}, r)
	if err != nil {
		t.Fatal(err)
	}
	// features per raw node, labels per output
	feat := tensor.New(60, 4)
	feat.Randn(r, 1)
	last := blocks[len(blocks)-1]
	labels := make([]int32, last.NumDst)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	gather := func(b []*graph.Block) *tensor.Var {
		x := tensor.New(b[0].NumSrc, 4)
		for i, nid := range b[0].SrcNID {
			copy(x.Row(i), feat.Row(int(nid)))
		}
		return tensor.Leaf(x)
	}
	labelsFor := func(b []*graph.Block) []int32 {
		lb := b[len(b)-1]
		out := make([]int32, lb.NumDst)
		for i, nid := range lb.DstNID {
			// label by the node's position in the full output list
			for j, fn := range last.DstNID {
				if fn == nid {
					out[i] = labels[j]
				}
			}
		}
		return out
	}

	// full-batch gradient
	ZeroGrad(model)
	tp := tensor.NewTape()
	logits := model.Forward(tp, blocks, gather(blocks))
	loss := tp.SoftmaxCrossEntropy(logits, labels)
	tp.Backward(loss)
	fullGrads := make([]*tensor.Tensor, 0)
	for _, p := range model.Params() {
		fullGrads = append(fullGrads, p.Grad.Clone())
	}

	// micro-batch accumulation over a 3/5 split
	ZeroGrad(model)
	groups := [][]int32{{0, 2, 4}, {1, 3, 5, 6, 7}}
	for _, sel := range groups {
		micro, err := graph.SliceBatch(blocks, sel)
		if err != nil {
			t.Fatal(err)
		}
		mtp := tensor.NewTape()
		mlogits := model.Forward(mtp, micro, gather(micro))
		mloss := mtp.SoftmaxCrossEntropy(mlogits, labelsFor(micro))
		mloss = mtp.Scale(mloss, float32(len(sel))/float32(last.NumDst))
		mtp.Backward(mloss)
	}
	for i, p := range model.Params() {
		for j := range p.Grad.Data {
			if !almostEq(float64(p.Grad.Data[j]), float64(fullGrads[i].Data[j]), 1e-3) {
				t.Fatalf("param %d elem %d: micro %v vs full %v", i, j, p.Grad.Data[j], fullGrads[i].Data[j])
			}
		}
	}
}

func TestGATForwardShapesAndGrads(t *testing.T) {
	_, blocks := buildTwoLayerBatch(t, 13)
	r := rng.New(14)
	model, err := NewGAT(Config{InDim: 4, Hidden: 5, OutDim: 3, Layers: 2, Heads: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Leaf(tensor.New(blocks[0].NumSrc, 4))
	x.Value.Randn(r, 1)
	tp := tensor.NewTape()
	logits := model.Forward(tp, blocks, x)
	if logits.Value.Rows() != blocks[1].NumDst || logits.Value.Cols() != 3 {
		t.Fatalf("GAT output %dx%d", logits.Value.Rows(), logits.Value.Cols())
	}
	labels := make([]int32, blocks[1].NumDst)
	loss := tp.SoftmaxCrossEntropy(logits, labels)
	tp.Backward(loss)
	for i, p := range model.Params() {
		if p.Grad == nil {
			t.Fatalf("GAT param %d got no grad", i)
		}
	}
	// layer 0: 2 heads x (attL 5 + attR 5); layer 1: 2 heads x (3 + 3)
	if model.AggParamCount() != 2*(5+5)+2*(3+3) {
		t.Fatalf("GAT AggParamCount = %d", model.AggParamCount())
	}
}

func TestGATHiddenWidthConcatsHeads(t *testing.T) {
	b := testBlock(t)
	r := rng.New(15)
	x := tensor.Leaf(tensor.New(b.NumSrc, 4))
	x.Value.Randn(r, 1)
	for _, c := range []struct {
		concat bool
		want   int
	}{{true, 15}, {false, 5}} {
		tp := tensor.NewTape()
		out := NewGATConv(4, 5, 3, c.concat, r).Forward(tp, b, x, false)
		if out.Value.Rows() != b.NumDst || out.Value.Cols() != c.want {
			t.Fatalf("concat=%v: output %dx%d, want %dx%d", c.concat, out.Value.Rows(), out.Value.Cols(), b.NumDst, c.want)
		}
		tp.Release()
	}
}

func TestOptimizersDescend(t *testing.T) {
	quadratic := func(opt func(Module) Optimizer) float64 {
		w := tensor.Param(tensor.FromSlice(1, 2, []float32{3, -2}))
		mod := paramModule{w}
		o := opt(mod)
		for i := 0; i < 200; i++ {
			tp := tensor.NewTape()
			loss := tp.Sum(tp.Mul(w, w))
			ZeroGrad(mod)
			tp.Backward(loss)
			o.Step()
		}
		return float64(w.Value.Data[0]*w.Value.Data[0] + w.Value.Data[1]*w.Value.Data[1])
	}
	if v := quadratic(func(m Module) Optimizer { return NewAdam(m, 0.05) }); v > 1e-4 {
		t.Fatalf("Adam did not descend: %v", v)
	}
}

type paramModule struct{ p *tensor.Var }

func (m paramModule) Params() []*tensor.Var { return []*tensor.Var{m.p} }

func TestOptimizerStateSizes(t *testing.T) {
	w := tensor.Param(tensor.New(2, 2))
	m := paramModule{w}
	if NewAdam(m, 0.1).StateSize() != 2 {
		t.Fatal("adam state size")
	}
}

func TestParseAggregator(t *testing.T) {
	for _, name := range []string{"mean", "sum", "pool", "lstm"} {
		a, err := ParseAggregator(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != name {
			t.Fatalf("round trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseAggregator("avg"); err == nil {
		t.Fatal("unknown aggregator accepted")
	}
}
