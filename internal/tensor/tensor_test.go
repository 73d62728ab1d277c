package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"betty/internal/parallel"
	"betty/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewShapeAndAccess(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Len() != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows(), m.Cols(), m.Len())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("Set/At mismatch: %v", m.At(1, 2))
	}
	if m.Row(1)[2] != 5 {
		t.Fatalf("Row aliasing broken")
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice should panic on length mismatch")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if math.Float32bits(c.Data[i]) != math.Float32bits(v) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul should panic on inner-dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 2))
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	a := New(5, 7)
	a.Randn(r, 1)
	b := Transpose(Transpose(a))
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatal("transpose twice is not identity")
		}
	}
}

// Property: MatMulTA(a,b) == MatMul(Transpose(a), b) and
// MatMulTB(a,b) == MatMul(a, Transpose(b)).
func TestMatMulTransposedVariants(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := New(k, m) // note: for TA we need a as k x m
		b := New(k, n)
		a.Randn(r, 1)
		b.Randn(r, 1)
		got := MatMulTA(a, b)
		want := MatMul(Transpose(a), b)
		for i := range got.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-5) {
				t.Fatalf("MatMulTA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
		c := New(m, k)
		d := New(n, k)
		c.Randn(r, 1)
		d.Randn(r, 1)
		got2 := MatMulTB(c, d)
		want2 := MatMul(c, Transpose(d))
		for i := range got2.Data {
			if !almostEq(float64(got2.Data[i]), float64(want2.Data[i]), 1e-5) {
				t.Fatalf("MatMulTB mismatch at %d", i)
			}
		}
	}
}

// Property via testing/quick: matmul distributes over addition:
// A(B + C) == AB + AC for random small matrices.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.Randn(r, 1)
		b.Randn(r, 1)
		c.Randn(r, 1)
		bc := b.Clone()
		AddInto(bc, c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		AddInto(right, MatMul(a, c))
		for i := range left.Data {
			if !almostEq(float64(left.Data[i]), float64(right.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAXPY(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	AXPY(a, 2, b)
	want := []float32{21, 42, 63}
	for i, v := range want {
		if math.Float32bits(a.Data[i]) != math.Float32bits(v) {
			t.Fatalf("AXPY[%d] = %v, want %v", i, a.Data[i], v)
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	r := rng.New(3)
	w := New(64, 32)
	w.XavierInit(r)
	limit := float32(math.Sqrt(6.0/96.0)) + 1e-6
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestArgmax(t *testing.T) {
	a := FromSlice(2, 3, []float32{0, 5, 2, 7, 1, 3})
	got := Argmax(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

// The parallel matmul kernels must be bitwise-identical to the serial path
// for any worker count: each worker owns disjoint output rows and sums each
// element's terms in the same order as the serial loop.
func TestMatMulParallelDeterminism(t *testing.T) {
	r := rng.New(99)
	// Dimensions chosen so rowGrain yields several shards per kernel.
	a := New(300, 80)
	a.Randn(r, 1)
	b := New(80, 64)
	b.Randn(r, 1)
	ta := New(300, 90) // for MatMulTA: aᵀ(90 out rows) @ b2
	ta.Randn(r, 1)
	b2 := New(300, 64)
	b2.Randn(r, 1)
	tb := New(200, 80) // for MatMulTB: a @ tbᵀ
	tb.Randn(r, 1)

	type kernel struct {
		name string
		run  func() *Tensor
	}
	kernels := []kernel{
		{"MatMul", func() *Tensor { return MatMul(a, b) }},
		{"MatMulTA", func() *Tensor { return MatMulTA(ta, b2) }},
		{"MatMulTB", func() *Tensor { return MatMulTB(a, tb) }},
	}
	for _, k := range kernels {
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		want := k.run()
		for _, w := range []int{2, 4, 8} {
			parallel.SetWorkers(w)
			got := k.run()
			if !got.SameShape(want) {
				t.Fatalf("%s workers=%d: shape %dx%d != %dx%d", k.name, w, got.RowsN, got.ColsN, want.RowsN, want.ColsN)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: element %d is %v, serial %v", k.name, w, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
