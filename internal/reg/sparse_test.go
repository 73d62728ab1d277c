package reg

import (
	"math"
	"testing"
	"testing/quick"

	"betty/internal/rng"
)

// dense converts a CSR to a dense 2D slice for comparison in tests.
func dense(m *CSR) [][]float32 {
	out := make([][]float32, m.NumRows)
	for i := range out {
		out[i] = make([]float32, m.NumCols)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i][m.ColIdx[p]] += m.Val[p]
		}
	}
	return out
}

func denseMul(a, b [][]float32) [][]float32 {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]float32, rows)
	for i := range out {
		out[i] = make([]float32, cols)
		for k := 0; k < inner; k++ {
			for j := 0; j < cols; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func randomCSR(r *rng.RNG, rows, cols, nnz int) *CSR {
	ri := make([]int32, nnz)
	ci := make([]int32, nnz)
	vals := make([]float32, nnz)
	for k := 0; k < nnz; k++ {
		ri[k] = r.Int31n(int32(rows))
		ci[k] = r.Int31n(int32(cols))
		vals[k] = float32(1 + r.Intn(3))
	}
	m, err := NewCOO(rows, cols, ri, ci, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewCOOBinaryAndAt(t *testing.T) {
	m, err := NewCOO(3, 3, []int32{0, 1, 2, 0}, []int32{1, 2, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 { // duplicate (0,1) summed
		t.Fatalf("At(0,1) = %v, want 2", m.At(0, 1))
	}
	if m.At(1, 2) != 1 || m.At(2, 0) != 1 || m.At(0, 0) != 0 {
		t.Fatal("wrong entries")
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 after dedup", m.NNZ())
	}
}

func TestNewCOOValidation(t *testing.T) {
	if _, err := NewCOO(2, 2, []int32{0}, []int32{0, 1}, nil); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := NewCOO(2, 2, []int32{5}, []int32{0}, nil); err == nil {
		t.Fatal("out-of-range row not rejected")
	}
	if _, err := NewCOO(2, 2, []int32{0}, []int32{0}, []float32{1, 2}); err == nil {
		t.Fatal("value length mismatch not rejected")
	}
}

func TestTransposeAgainstDense(t *testing.T) {
	r := rng.New(5)
	m := randomCSR(r, 7, 4, 15)
	mt := m.Transpose()
	d, dt := dense(m), dense(mt)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			if math.Float32bits(d[i][j]) != math.Float32bits(dt[j][i]) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

// Property: SpGEMM equals dense matmul for random sparse matrices.
func TestMatMulAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomCSR(r, m, k, r.Intn(20))
		b := randomCSR(r, k, n, r.Intn(20))
		c, err := a.MatMul(b)
		if err != nil {
			return false
		}
		want := denseMul(dense(a), dense(b))
		got := dense(c)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapeError(t *testing.T) {
	a := randomCSR(rng.New(1), 2, 3, 4)
	b := randomCSR(rng.New(2), 2, 3, 4)
	if _, err := a.MatMul(b); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

// Gram on the paper's Figure 8 example: an adjacency matrix where the
// product counts shared neighbors. Nodes 0 and 1 share two in-neighbors.
func TestGramCountsSharedNeighbors(t *testing.T) {
	// A: 4 nodes; node 2 -> {0, 1}, node 3 -> {0, 1}. a_ki = edge k->i.
	a, err := NewCOO(4, 4,
		[]int32{2, 2, 3, 3},
		[]int32{0, 1, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Gram()
	if c.At(0, 1) != 2 || c.At(1, 0) != 2 {
		t.Fatalf("shared neighbor count = %v, want 2", c.At(0, 1))
	}
	if c.At(0, 0) != 2 { // diagonal counts own in-degree
		t.Fatalf("diagonal = %v, want 2", c.At(0, 0))
	}
}

// Property: Gram is symmetric with non-negative entries.
func TestGramSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		a := randomCSR(r, n, n, r.Intn(30))
		c := a.Gram()
		d := dense(c)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float32bits(d[i][j]) != math.Float32bits(d[j][i]) || d[i][j] < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDropSelfLoops(t *testing.T) {
	m, err := NewCOO(3, 3, []int32{0, 1, 1, 2}, []int32{0, 1, 2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := m.DropSelfLoops()
	if d.At(0, 0) != 0 || d.At(1, 1) != 0 {
		t.Fatal("self loops survive")
	}
	if d.At(1, 2) != 1 || d.At(2, 0) != 1 {
		t.Fatal("off-diagonal entries lost")
	}
	if d.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", d.NNZ())
	}
}

func TestSelectSquare(t *testing.T) {
	// 4x4 with a known pattern
	m, err := NewCOO(4, 4,
		[]int32{0, 0, 1, 2, 3},
		[]int32{1, 3, 2, 3, 0},
		[]float32{5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.SelectSquare([]int32{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRows != 2 || sub.NumCols != 2 {
		t.Fatalf("shape %dx%d", sub.NumRows, sub.NumCols)
	}
	// old (0,3)=6 -> new (0,1); old (3,0)=9 -> new (1,0); (0,1) and (2,3) dropped
	if sub.At(0, 1) != 6 || sub.At(1, 0) != 9 || sub.NNZ() != 2 {
		t.Fatalf("wrong submatrix: nnz=%d", sub.NNZ())
	}
}

func TestSelectSquareErrors(t *testing.T) {
	m, _ := NewCOO(3, 3, nil, nil, nil)
	if _, err := m.SelectSquare([]int32{0, 0}); err == nil {
		t.Fatal("duplicate keep not rejected")
	}
	if _, err := m.SelectSquare([]int32{7}); err == nil {
		t.Fatal("out-of-range keep not rejected")
	}
	rect := &CSR{NumRows: 2, NumCols: 3, RowPtr: make([]int64, 3)}
	if _, err := rect.SelectSquare([]int32{0}); err == nil {
		t.Fatal("non-square matrix not rejected")
	}
}

// Gram equals Transpose().MatMul() by definition.
func TestGramMatchesExplicitProduct(t *testing.T) {
	r := rng.New(17)
	a := randomCSR(r, 9, 6, 25)
	want, err := a.Transpose().MatMul(a)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Gram()
	dw, dg := dense(want), dense(got)
	for i := range dw {
		for j := range dw[i] {
			if math.Float32bits(dw[i][j]) != math.Float32bits(dg[i][j]) {
				t.Fatalf("Gram mismatch at %d,%d", i, j)
			}
		}
	}
}

// TestDedupCancellationNoDuplicateColumns pins the accumulator's
// first-touch marking: contributions that cancel to exactly zero mid-row
// must neither re-register the column (duplicating CSR entries) nor leave
// a stored zero behind.
func TestDedupCancellationNoDuplicateColumns(t *testing.T) {
	// Column 1 receives 2, -2 (cancel), then 5; column 2 receives 3, -3
	// (cancels away entirely).
	m, err := NewCOO(1, 4,
		[]int32{0, 0, 0, 0, 0},
		[]int32{1, 1, 1, 2, 2},
		[]float32{2, -2, 5, 3, -3})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (col 1 once, cancelled col 2 dropped): cols %v vals %v",
			m.NNZ(), m.ColIdx, m.Val)
	}
	seen := make(map[int32]bool)
	for _, c := range m.ColIdx {
		if seen[c] {
			t.Fatalf("duplicate column %d in row 0: %v", c, m.ColIdx)
		}
		seen[c] = true
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", m.At(0, 1))
	}
}

// TestMatMulCancellationNoDuplicateColumns is the SpGEMM twin: partial
// products that cancel mid-accumulation must not duplicate output columns.
func TestMatMulCancellationNoDuplicateColumns(t *testing.T) {
	// a = [1 -1 1]; every b row is [1], so (0,0) accumulates 1, -1
	// (cancelling to zero mid-row), then 1.
	a, err := NewCOO(1, 3, []int32{0, 0, 0}, []int32{0, 1, 2}, []float32{1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCOO(3, 1, []int32{0, 1, 2}, []int32{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 || c.ColIdx[0] != 0 {
		t.Fatalf("product NNZ = %d cols %v, want one entry at col 0", c.NNZ(), c.ColIdx)
	}
	if c.At(0, 0) != 1 {
		t.Fatalf("At(0,0) = %v, want 1", c.At(0, 0))
	}
}
