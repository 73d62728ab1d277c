package tensor

import (
	"math"
	"testing"

	"betty/internal/rng"
)

// numericGrad estimates d(loss)/d(param[i]) by central differences, where
// loss is recomputed from scratch by forward.
func numericGrad(param *Tensor, i int, forward func() float64) float64 {
	const eps = 1e-3
	orig := param.Data[i]
	param.Data[i] = orig + eps
	lp := forward()
	param.Data[i] = orig - eps
	lm := forward()
	param.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

// checkGrads runs backward once and compares every parameter gradient
// against a finite-difference estimate.
func checkGrads(t *testing.T, params []*Var, build func(tp *Tape) *Var) {
	t.Helper()
	tp := NewTape()
	loss := build(tp)
	tp.Backward(loss)
	forward := func() float64 {
		tpn := NewTape()
		return float64(build(tpn).Value.Data[0])
	}
	for pi, p := range params {
		if p.Grad == nil {
			t.Fatalf("param %d has nil grad", pi)
		}
		for i := range p.Value.Data {
			want := numericGrad(p.Value, i, forward)
			got := float64(p.Grad.Data[i])
			if math.Abs(want-got) > 2e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic %v vs numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestGradMatMulChain(t *testing.T) {
	r := rng.New(1)
	w1 := Param(New(4, 3))
	w2 := Param(New(3, 2))
	x := Leaf(New(5, 4))
	w1.Value.Randn(r, 0.5)
	w2.Value.Randn(r, 0.5)
	x.Value.Randn(r, 0.5)
	checkGrads(t, []*Var{w1, w2}, func(tp *Tape) *Var {
		h := tp.MatMul(x, w1)
		h = tp.Tanh(h)
		o := tp.MatMul(h, w2)
		return tp.Scale(tp.Sum(tp.Mul(o, o)), 1/float32(o.Value.Len()))
	})
}

func TestGradElementwiseOps(t *testing.T) {
	r := rng.New(2)
	a := Param(New(3, 3))
	b := Param(New(3, 3))
	a.Value.Randn(r, 1)
	b.Value.Randn(r, 1)
	checkGrads(t, []*Var{a, b}, func(tp *Tape) *Var {
		s := tp.Add(a, b)
		d := tp.Add(a, tp.Scale(b, -1))
		m := tp.Mul(s, d) // a² - b²
		sc := tp.Scale(m, 0.5)
		return tp.Sum(sc)
	})
}

func TestGradActivations(t *testing.T) {
	r := rng.New(3)
	a := Param(New(4, 4))
	a.Value.Randn(r, 1.5)
	// shift away from the ReLU kink to keep finite differences meaningful
	for i := range a.Value.Data {
		if math.Abs(float64(a.Value.Data[i])) < 0.05 {
			a.Value.Data[i] = 0.1
		}
	}
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		h := tp.ReLU(a)
		h = tp.Sigmoid(h)
		h = tp.Tanh(h)
		h2 := tp.LeakyReLU(a, 0.2)
		return tp.Sum(tp.Add(h, h2))
	})
}

func TestGradBiasAndConcat(t *testing.T) {
	r := rng.New(4)
	a := Param(New(3, 2))
	b := Param(New(3, 3))
	bias := Param(New(1, 5))
	a.Value.Randn(r, 1)
	b.Value.Randn(r, 1)
	bias.Value.Randn(r, 1)
	checkGrads(t, []*Var{a, b, bias}, func(tp *Tape) *Var {
		c := tp.ConcatCols(a, b)
		c = tp.AddBias(c, bias)
		return tp.Sum(tp.Mul(c, c))
	})
}

func TestGradGatherAndSlice(t *testing.T) {
	r := rng.New(5)
	a := Param(New(6, 3))
	a.Value.Randn(r, 1)
	idx := []int32{0, 2, 2, 5, 1}
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		g := tp.GatherRows(a, idx)
		s := tp.SliceRows(g, 1, 4)
		return tp.Sum(tp.Mul(s, s))
	})
}

func TestGradSliceCols(t *testing.T) {
	r := rng.New(21)
	a := Param(New(3, 8))
	a.Value.Randn(r, 1)
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		left := tp.SliceCols(a, 0, 3)
		mid := tp.SliceCols(a, 3, 6)
		s := tp.Mul(left, mid)
		return tp.Sum(tp.Mul(s, s))
	})
}

func TestSliceColsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SliceCols out of range should panic")
		}
	}()
	tp := NewTape()
	tp.SliceCols(Leaf(New(2, 4)), 2, 9)
}

func TestGradScatterRows(t *testing.T) {
	r := rng.New(22)
	a := Param(New(3, 2))
	a.Value.Randn(r, 1)
	idx := []int32{4, 0, 2}
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		s := tp.ScatterRows(a, idx, 5)
		return tp.Sum(tp.Mul(s, s))
	})
}

func TestScatterRowsRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate scatter index should panic")
		}
	}()
	tp := NewTape()
	tp.ScatterRows(Leaf(New(2, 2)), []int32{1, 1}, 3)
}

func TestScatterRowsUnassignedRowsZero(t *testing.T) {
	tp := NewTape()
	a := Leaf(FromSlice(1, 2, []float32{7, 8}))
	out := tp.ScatterRows(a, []int32{2}, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			want := float32(0)
			if i == 2 {
				want = a.Value.At(0, j)
			}
			if math.Float32bits(out.Value.At(i, j)) != math.Float32bits(want) {
				t.Fatalf("scatter[%d][%d] = %v", i, j, out.Value.At(i, j))
			}
		}
	}
}

func TestTapeValueBytes(t *testing.T) {
	tp := NewTape()
	a := Leaf(New(4, 4))
	b := tp.Scale(a, 2) // 16 values
	_ = tp.Add(b, b)    // 16 values
	if tp.ValueBytes() != 2*16*4 {
		t.Fatalf("ValueBytes = %d, want 128", tp.ValueBytes())
	}
}

func TestGradSegmentOps(t *testing.T) {
	r := rng.New(6)
	a := Param(New(7, 3))
	a.Value.Randn(r, 1)
	dst := []int32{0, 0, 1, 2, 2, 2, 1}
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		sum := tp.SegmentSum(a, dst, 3)
		return tp.Sum(tp.Mul(sum, sum))
	})
}

func TestGradSegmentMax(t *testing.T) {
	r := rng.New(7)
	a := Param(New(6, 2))
	a.Value.Randn(r, 2)
	dst := []int32{0, 0, 1, 1, 1, 2}
	checkGrads(t, []*Var{a}, func(tp *Tape) *Var {
		mx := tp.SegmentMax(a, dst, 3)
		return tp.Sum(tp.Mul(mx, mx))
	})
}

func TestGradRowScaleAndMulRowsVec(t *testing.T) {
	r := rng.New(9)
	a := Param(New(4, 3))
	w := Param(New(4, 1))
	a.Value.Randn(r, 1)
	w.Value.Randn(r, 1)
	scale := []float32{0.5, 1, 2, 0.25}
	checkGrads(t, []*Var{a, w}, func(tp *Tape) *Var {
		rs := tp.RowScale(a, scale)
		mv := tp.MulRowsVec(rs, w)
		return tp.Sum(tp.Mul(mv, mv))
	})
}

func TestGradSegmentSoftmax(t *testing.T) {
	r := rng.New(10)
	s := Param(New(6, 1))
	s.Value.Randn(r, 1)
	dst := []int32{0, 0, 0, 1, 1, 2}
	checkGrads(t, []*Var{s}, func(tp *Tape) *Var {
		p := tp.SegmentSoftmax(s, dst, 3)
		// weight each probability so the loss is not trivially constant
		weights := Leaf(FromSlice(6, 1, []float32{1, 2, 3, 4, 5, 6}))
		return tp.Sum(tp.Mul(p, weights))
	})
}

func TestSegmentSoftmaxSumsToOne(t *testing.T) {
	r := rng.New(11)
	s := Leaf(New(10, 1))
	s.Value.Randn(r, 3)
	dst := []int32{0, 0, 1, 1, 1, 2, 2, 2, 2, 3}
	tp := NewTape()
	p := tp.SegmentSoftmax(s, dst, 4)
	sums := make([]float64, 4)
	for e, d := range dst {
		sums[d] += float64(p.Value.Data[e])
	}
	for i, v := range sums {
		if !almostEq(v, 1, 1e-5) {
			t.Fatalf("segment %d sums to %v", i, v)
		}
	}
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	r := rng.New(12)
	logits := Param(New(5, 4))
	logits.Value.Randn(r, 1)
	labels := []int32{0, 3, 2, -1, 1} // one masked row
	checkGrads(t, []*Var{logits}, func(tp *Tape) *Var {
		return tp.SoftmaxCrossEntropy(logits, labels)
	})
}

func TestCrossEntropyMaskedRowsGetNoGrad(t *testing.T) {
	logits := Param(New(2, 3))
	logits.Value.Randn(rng.New(1), 1)
	labels := []int32{-1, 1}
	tp := NewTape()
	loss := tp.SoftmaxCrossEntropy(logits, labels)
	tp.Backward(loss)
	for j := 0; j < 3; j++ {
		if logits.Grad.At(0, j) != 0 {
			t.Fatal("masked row received gradient")
		}
	}
}

// Gradient accumulation: two backward passes without ZeroGrad must sum.
func TestGradAccumulationAcrossTapes(t *testing.T) {
	w := Param(New(2, 2))
	w.Value.Randn(rng.New(13), 1)
	x := Leaf(FromSlice(1, 2, []float32{1, 2}))

	run := func() {
		tp := NewTape()
		h := tp.MatMul(x, w)
		loss := tp.Sum(h)
		tp.Backward(loss)
	}
	run()
	first := w.Grad.Clone()
	run()
	for i := range w.Grad.Data {
		if !almostEq(float64(w.Grad.Data[i]), 2*float64(first.Data[i]), 1e-6) {
			t.Fatalf("accumulated grad %v != 2x single grad %v", w.Grad.Data[i], first.Data[i])
		}
	}
	w.ZeroGrad()
	for _, v := range w.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

// The key Betty property: gradient of mean loss over a batch equals the
// weighted sum of micro-batch gradients. Here the "model" is a linear map
// and loss is mean squared activation; we split 6 rows into 2+4.
func TestMicroBatchGradientEquivalence(t *testing.T) {
	r := rng.New(14)
	w := Param(New(3, 2))
	w.Value.Randn(r, 1)
	x := New(6, 3)
	x.Randn(r, 1)
	labels := []int32{0, 1, 0, 1, 1, 0}

	fullGrad := func() *Tensor {
		w.ZeroGrad()
		tp := NewTape()
		out := tp.MatMul(Leaf(x), w)
		loss := tp.SoftmaxCrossEntropy(out, labels)
		tp.Backward(loss)
		return w.Grad.Clone()
	}
	full := fullGrad()

	w.ZeroGrad()
	splits := [][2]int{{0, 2}, {2, 6}}
	for _, sp := range splits {
		lo, hi := sp[0], sp[1]
		sub := New(hi-lo, 3)
		copy(sub.Data, x.Data[lo*3:hi*3])
		tp := NewTape()
		out := tp.MatMul(Leaf(sub), w)
		loss := tp.SoftmaxCrossEntropy(out, labels[lo:hi])
		// scale by micro-batch fraction so the accumulated gradient equals
		// the gradient of the full-batch mean loss
		loss = tp.Scale(loss, float32(hi-lo)/6)
		tp.Backward(loss)
	}
	for i := range full.Data {
		if !almostEq(float64(full.Data[i]), float64(w.Grad.Data[i]), 1e-4) {
			t.Fatalf("micro-batch grad[%d] %v != full %v", i, w.Grad.Data[i], full.Data[i])
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward should panic on non-scalar loss")
		}
	}()
	tp := NewTape()
	a := Param(New(2, 2))
	out := tp.Scale(a, 2)
	tp.Backward(out)
}
