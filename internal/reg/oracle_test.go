package reg

// The Algorithm-1-literal REG construction, kept as the test oracle for
// BuildREGFast: an explicit sparse adjacency A, its Gram product C = AᵀA
// by Gustavson SpGEMM, restriction to the output nodes, and self-loop
// removal (Algorithm 1 lines 1-7). The CSR type below is the minimal
// sparse-matrix kit that construction needs; sparse_test.go checks it
// against dense products.

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/partition"
)

// BuildREG constructs the redundancy-embedded graph of a last-layer block,
// following Algorithm 1 lines 1-7: adjacency A over the block's homogeneous
// node space, C = AᵀA, restriction to output (destination) nodes, and
// self-loop removal. The result has one node per block destination; edge
// weights count shared in-neighbors.
func BuildREG(last *graph.Block) (*partition.WeightedGraph, error) {
	if err := last.Validate(); err != nil {
		return nil, fmt.Errorf("reg: invalid block: %w", err)
	}
	n := last.NumSrc // homogeneous node space: sources (destinations are a prefix)
	srcIdx, dstIdx := last.EdgePairs()
	// A[k][i] = 1 iff edge k -> i; rows are sources, cols are destinations
	// in the same local space.
	a, err := NewCOO(n, n, srcIdx, dstIdx, nil)
	if err != nil {
		return nil, fmt.Errorf("reg: adjacency: %w", err)
	}
	c := a.Gram() // c_ij = number of shared in-neighbors of i and j

	// Remove non-output nodes (keep destinations 0..NumDst-1), then self loops.
	keep := make([]int32, last.NumDst)
	for i := range keep {
		keep[i] = int32(i)
	}
	c, err = c.SelectSquare(keep)
	if err != nil {
		return nil, fmt.Errorf("reg: restrict to outputs: %w", err)
	}
	c = c.DropSelfLoops()

	// Convert to the partitioner's undirected weighted-graph format.
	// C is symmetric; NewWeightedGraph sums both triangle copies, so halve.
	u := make([]int32, 0, c.NNZ())
	v := make([]int32, 0, c.NNZ())
	w := make([]float32, 0, c.NNZ())
	for i := 0; i < c.NumRows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			j := c.ColIdx[p]
			if int32(i) < j { // take the upper triangle once
				u = append(u, int32(i))
				v = append(v, j)
				w = append(w, c.Val[p])
			}
		}
	}
	return partition.NewWeightedGraph(last.NumDst, u, v, w, nil)
}

// CSR is a sparse matrix in compressed-sparse-row form. Val may be nil,
// in which case every stored entry has implicit value 1 (a binary matrix,
// e.g. an adjacency matrix).
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int64
	ColIdx           []int32
	Val              []float32
}

// NewCOO builds a CSR matrix from coordinate-format triplets. Duplicate
// coordinates are summed. vals may be nil for a binary matrix (duplicates
// then still sum, yielding counts).
func NewCOO(rows, cols int, ri, ci []int32, vals []float32) (*CSR, error) {
	if len(ri) != len(ci) {
		return nil, fmt.Errorf("sparse: row/col index length mismatch")
	}
	if vals != nil && len(vals) != len(ri) {
		return nil, fmt.Errorf("sparse: value length mismatch")
	}
	for k := range ri {
		if ri[k] < 0 || int(ri[k]) >= rows || ci[k] < 0 || int(ci[k]) >= cols {
			return nil, fmt.Errorf("sparse: entry %d (%d,%d) out of %dx%d", k, ri[k], ci[k], rows, cols)
		}
	}
	// counting sort by row
	ptr := make([]int64, rows+1)
	for _, r := range ri {
		ptr[r+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, len(ri))
	val := make([]float32, len(ri))
	cursor := make([]int64, rows)
	copy(cursor, ptr[:rows])
	for k := range ri {
		p := cursor[ri[k]]
		col[p] = ci[k]
		if vals != nil {
			val[p] = vals[k]
		} else {
			val[p] = 1
		}
		cursor[ri[k]] = p + 1
	}
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: ptr, ColIdx: col, Val: val}
	return m.dedup(), nil
}

// dedup merges duplicate column entries within each row (summing values).
func (m *CSR) dedup() *CSR {
	outPtr := make([]int64, m.NumRows+1)
	outCol := make([]int32, 0, len(m.ColIdx))
	outVal := make([]float32, 0, len(m.Val))
	acc := make([]float32, m.NumCols)
	// First-touch detection uses an explicit mark, not acc[c] == 0: partial
	// sums that cancel to exact zero mid-row must not re-enter touched, or
	// the output row would carry duplicate columns.
	mark := make([]bool, m.NumCols)
	touched := make([]int32, 0, 64)
	for i := 0; i < m.NumRows; i++ {
		touched = touched[:0]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			if !mark[c] {
				mark[c] = true
				touched = append(touched, c)
			}
			acc[c] += m.Val[p]
		}
		for _, c := range touched {
			// Sparse formats drop entries that sum to exactly zero.
			if acc[c] != 0 {
				outCol = append(outCol, c)
				outVal = append(outVal, acc[c])
			}
			acc[c] = 0
			mark[c] = false
		}
		outPtr[i+1] = int64(len(outCol))
	}
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: outPtr, ColIdx: outCol, Val: outVal}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// At returns the value at (i, j) with a linear scan of row i; intended for
// tests and small matrices.
func (m *CSR) At(i, j int32) float32 {
	for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
		if m.ColIdx[p] == j {
			return m.Val[p]
		}
	}
	return 0
}

// Transpose returns mᵀ.
func (m *CSR) Transpose() *CSR {
	ptr := make([]int64, m.NumCols+1)
	for _, c := range m.ColIdx {
		ptr[c+1]++
	}
	for i := 0; i < m.NumCols; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, m.NNZ())
	val := make([]float32, m.NNZ())
	cursor := make([]int64, m.NumCols)
	copy(cursor, ptr[:m.NumCols])
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := cursor[c]
			col[q] = int32(i)
			val[q] = m.Val[p]
			cursor[c] = q + 1
		}
	}
	return &CSR{NumRows: m.NumCols, NumCols: m.NumRows, RowPtr: ptr, ColIdx: col, Val: val}
}

// MatMul computes m @ b with Gustavson's row-wise SpGEMM algorithm.
func (m *CSR) MatMul(b *CSR) (*CSR, error) {
	if m.NumCols != b.NumRows {
		return nil, fmt.Errorf("sparse: MatMul shape mismatch %dx%d @ %dx%d", m.NumRows, m.NumCols, b.NumRows, b.NumCols)
	}
	outPtr := make([]int64, m.NumRows+1)
	outCol := make([]int32, 0, m.NNZ())
	outVal := make([]float32, 0, m.NNZ())
	acc := make([]float32, b.NumCols)
	// Explicit first-touch mark: acc[c] == 0 would re-append a column whose
	// partial products cancelled to exact zero, duplicating CSR entries.
	mark := make([]bool, b.NumCols)
	touched := make([]int32, 0, 256)
	for i := 0; i < m.NumRows; i++ {
		touched = touched[:0]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			k := m.ColIdx[p]
			av := m.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				c := b.ColIdx[q]
				if !mark[c] {
					mark[c] = true
					touched = append(touched, c)
				}
				acc[c] += av * b.Val[q]
			}
		}
		for _, c := range touched {
			// Sparse formats drop entries that sum to exactly zero.
			if acc[c] != 0 {
				outCol = append(outCol, c)
				outVal = append(outVal, acc[c])
			}
			acc[c] = 0
			mark[c] = false
		}
		outPtr[i+1] = int64(len(outCol))
	}
	return &CSR{NumRows: m.NumRows, NumCols: b.NumCols, RowPtr: outPtr, ColIdx: outCol, Val: outVal}, nil
}

// Gram computes AᵀA for a binary-or-weighted matrix A: the REG matrix C of
// Equation 3 in the paper, where C[i][j] counts the shared in-neighbors of
// columns i and j. It is equivalent to A.Transpose().MatMul(A) but avoids
// materializing the transpose twice.
func (m *CSR) Gram() *CSR {
	at := m.Transpose()
	out, err := at.MatMul(m)
	if err != nil {
		// shapes always agree for AᵀA; this is unreachable
		panic(err)
	}
	return out
}

// DropSelfLoops returns a copy of m without diagonal entries
// (Algorithm 1 line 7).
func (m *CSR) DropSelfLoops() *CSR {
	outPtr := make([]int64, m.NumRows+1)
	outCol := make([]int32, 0, m.NNZ())
	outVal := make([]float32, 0, m.NNZ())
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.ColIdx[p]) == i {
				continue
			}
			outCol = append(outCol, m.ColIdx[p])
			outVal = append(outVal, m.Val[p])
		}
		outPtr[i+1] = int64(len(outCol))
	}
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: outPtr, ColIdx: outCol, Val: outVal}
}

// SelectSquare returns the square submatrix of m induced by keep — the rows
// and columns whose (equal) index appears in keep, renumbered to 0..len-1 in
// keep order. Used by Algorithm 1 line 5-6 to remove non-output nodes from
// the REG. m must be square.
func (m *CSR) SelectSquare(keep []int32) (*CSR, error) {
	if m.NumRows != m.NumCols {
		return nil, fmt.Errorf("sparse: SelectSquare requires a square matrix")
	}
	remap := make([]int32, m.NumRows)
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		if old < 0 || int(old) >= m.NumRows {
			return nil, fmt.Errorf("sparse: keep index %d out of range", old)
		}
		if remap[old] != -1 {
			return nil, fmt.Errorf("sparse: duplicate keep index %d", old)
		}
		remap[old] = int32(newID)
	}
	n := len(keep)
	outPtr := make([]int64, n+1)
	outCol := make([]int32, 0)
	outVal := make([]float32, 0)
	for newID, old := range keep {
		for p := m.RowPtr[old]; p < m.RowPtr[old+1]; p++ {
			nc := remap[m.ColIdx[p]]
			if nc < 0 {
				continue
			}
			outCol = append(outCol, nc)
			outVal = append(outVal, m.Val[p])
		}
		outPtr[newID+1] = int64(len(outCol))
	}
	return &CSR{NumRows: n, NumCols: n, RowPtr: outPtr, ColIdx: outCol, Val: outVal}, nil
}
