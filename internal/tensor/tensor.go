// Package tensor implements the dense numerical substrate for GNN training:
// a row-major float32 matrix type, the raw math kernels (matmul, elementwise
// maps, segment reductions over graph edges), and a reverse-mode automatic
// differentiation tape built on top of them.
//
// The package replaces the role PyTorch plays in the original Betty
// implementation. It is deliberately minimal — 2-D tensors only, float32
// only — but the autograd is a real reverse-mode tape, so the gradient
// accumulation equivalence that micro-batch training relies on (sum of
// micro-batch gradients == full-batch gradient) holds by construction.
package tensor

import (
	"fmt"
	"math"

	"betty/internal/parallel"
	"betty/internal/rng"
)

// Tensor is a dense row-major matrix of float32 values.
// A Tensor with Cols == 1 doubles as a column vector.
type Tensor struct {
	// RowsN and ColsN are the dimensions. Data has length RowsN*ColsN.
	RowsN, ColsN int
	Data         []float32
}

// New returns a zero-initialized rows x cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Tensor{RowsN: rows, ColsN: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols tensor.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Tensor{RowsN: rows, ColsN: cols, Data: data}
}

// Rows returns the number of rows.
func (t *Tensor) Rows() int { return t.RowsN }

// Cols returns the number of columns.
func (t *Tensor) Cols() int { return t.ColsN }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return t.RowsN * t.ColsN }

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.ColsN+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.ColsN+j] = v }

// Row returns row i as a slice aliasing the tensor's storage.
func (t *Tensor) Row(i int) []float32 { return t.Data[i*t.ColsN : (i+1)*t.ColsN] }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.RowsN, t.ColsN)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.RowsN == o.RowsN && t.ColsN == o.ColsN
}

// String renders small tensors fully and large ones as a shape summary.
func (t *Tensor) String() string {
	if t.Len() <= 64 {
		return fmt.Sprintf("Tensor(%dx%d)%v", t.RowsN, t.ColsN, t.Data)
	}
	return fmt.Sprintf("Tensor(%dx%d)", t.RowsN, t.ColsN)
}

// Randn fills t with normal deviates scaled by std.
func (t *Tensor) Randn(r *rng.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.Norm() * std)
	}
}

// XavierInit fills t with the Glorot/Xavier uniform initialization for a
// weight matrix of shape [fanIn, fanOut].
func (t *Tensor) XavierInit(r *rng.RNG) {
	limit := math.Sqrt(6.0 / float64(t.RowsN+t.ColsN))
	for i := range t.Data {
		t.Data[i] = float32((2*r.Float64() - 1) * limit)
	}
}

// --- raw kernels (no autograd) ---

// MatMul computes a @ b into a new tensor. Panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	if a.ColsN != b.RowsN {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d @ %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	out := New(a.RowsN, b.ColsN)
	matMulInto(out, a, b, false)
	return out
}

// rowGrain sizes the row blocks the parallel kernels hand to each worker:
// large enough that a shard amortizes dispatch overhead (~64k multiply-
// adds), small enough that big matrices fan out across every core. Each
// kernel passes its *own* per-output-row multiply-add count — the forward
// kernel's K·N, MatMulTA's K·N with K = rows(a), MatMulTB's K·M — rather
// than sharing the forward kernel's formula, so shards carry comparable
// work in every variant. It is a function of the row cost only — never of
// the worker count — so the shard structure, and with it the result, is
// identical for any parallelism.
func rowGrain(flopsPerRow int) int {
	const target = 1 << 16
	g := target / (flopsPerRow + 1)
	if g < 1 {
		g = 1
	}
	return g
}

// matMulInto computes out (+)= a @ b. When accum is true the product is
// added to out instead of overwriting it.
//
// The kernel is register-blocked over k: four consecutive multipliers of a
// row of a are held in registers and applied to four rows of b in one pass
// over the output row, so each output element is loaded and stored once
// per four accumulation terms instead of once per term. The adds within a
// block are explicitly sequenced ascending in k — v = ((v+p0)+p1)+p2)+p3 —
// so every output element accumulates its terms in exactly the serial
// ikj order: the tiling changes memory traffic, never a single rounding.
// Row blocks run in parallel; each worker owns a disjoint range of output
// rows, so the result is bitwise-identical for any worker count.
func matMulInto(out, a, b *Tensor, accum bool) {
	n := b.ColsN
	kDim := a.ColsN
	if !accum {
		out.Zero()
	}
	parallel.For(a.RowsN, rowGrain(kDim*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			k := 0
			for ; k+4 <= kDim; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				b0 := b.Data[k*n : k*n+n]
				b1 := b.Data[(k+1)*n : (k+1)*n+n]
				b2 := b.Data[(k+2)*n : (k+2)*n+n]
				b3 := b.Data[(k+3)*n : (k+3)*n+n]
				//bettyvet:ok floateq sparsity fast path: skipping exactly-zero multipliers is value-preserving for finite inputs
				if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
					for j := range orow {
						v := orow[j]
						v += a0 * b0[j]
						v += a1 * b1[j]
						v += a2 * b2[j]
						v += a3 * b3[j]
						orow[j] = v
					}
					continue
				}
				//bettyvet:ok floateq mixed block: zero multipliers must be skipped term-by-term, not multiplied through — 0*Inf is NaN and +0 can flip a -0 accumulator
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				// Mixed block: keep the single pass over the output row but
				// guard each term, so the per-element term sequence is exactly
				// the serial kernel's (zero terms skipped, ascending k). The
				// guards are j-invariant, so they predict perfectly.
				for j := range orow {
					v := orow[j]
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a0 != 0 {
						v += a0 * b0[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a1 != 0 {
						v += a1 * b1[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a2 != 0 {
						v += a2 * b2[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a3 != 0 {
						v += a3 * b3[j]
					}
					orow[j] = v
				}
			}
			for ; k < kDim; k++ {
				av := arow[k]
				//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
				if av == 0 {
					continue
				}
				brow := b.Data[k*n : k*n+n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// MatMulTA computes aᵀ @ b into a new tensor.
func MatMulTA(a, b *Tensor) *Tensor {
	out := New(a.ColsN, b.ColsN)
	matMulTAInto(out, a, b, false)
	return out
}

// matMulTAInto computes out (+)= aᵀ @ b. Workers own disjoint ranges of
// output rows (= columns of a). The loop is output-row-outer — earlier
// revisions walked k in the outer loop, which made every shard pay a full
// pass over a and b regardless of how few output rows it owned, defeating
// the grain model for narrow shards. Per output row the kernel blocks k by
// four (strided a[k][i] loads held in registers, one pass over the output
// row per block) with the same explicitly sequenced ascending-k adds and
// per-term zero-skip as the serial kernel, so each output element
// accumulates its terms in the identical order at any worker count. With
// accum the product is added to out — the backward pass writes straight
// into gradient tensors without a temporary.
func matMulTAInto(out, a, b *Tensor, accum bool) {
	if a.RowsN != b.RowsN {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %dx%d ᵀ@ %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	n := b.ColsN
	m := a.ColsN
	kDim := a.RowsN
	if !accum {
		out.Zero()
	}
	// flops per output row = kDim*n: row i of the output is a length-kDim
	// reduction over n-wide b rows, independent of m.
	parallel.For(m, rowGrain(kDim*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*n : i*n+n]
			k := 0
			for ; k+4 <= kDim; k += 4 {
				a0 := a.Data[k*m+i]
				a1 := a.Data[(k+1)*m+i]
				a2 := a.Data[(k+2)*m+i]
				a3 := a.Data[(k+3)*m+i]
				b0 := b.Data[k*n : k*n+n]
				b1 := b.Data[(k+1)*n : (k+1)*n+n]
				b2 := b.Data[(k+2)*n : (k+2)*n+n]
				b3 := b.Data[(k+3)*n : (k+3)*n+n]
				//bettyvet:ok floateq sparsity fast path: skipping exactly-zero multipliers is value-preserving for finite inputs
				if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
					for j := range orow {
						v := orow[j]
						v += a0 * b0[j]
						v += a1 * b1[j]
						v += a2 * b2[j]
						v += a3 * b3[j]
						orow[j] = v
					}
					continue
				}
				//bettyvet:ok floateq mixed block: zero multipliers must be skipped term-by-term, not multiplied through — 0*Inf is NaN and +0 can flip a -0 accumulator
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				for j := range orow {
					v := orow[j]
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a0 != 0 {
						v += a0 * b0[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a1 != 0 {
						v += a1 * b1[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a2 != 0 {
						v += a2 * b2[j]
					}
					//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
					if a3 != 0 {
						v += a3 * b3[j]
					}
					orow[j] = v
				}
			}
			for ; k < kDim; k++ {
				av := a.Data[k*m+i]
				//bettyvet:ok floateq sparsity fast path: skipping an exactly-zero multiplier is value-preserving for finite inputs
				if av == 0 {
					continue
				}
				brow := b.Data[k*n : k*n+n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// MatMulTB computes a @ bᵀ into a new tensor.
func MatMulTB(a, b *Tensor) *Tensor {
	out := New(a.RowsN, b.RowsN)
	matMulTBInto(out, a, b, false)
	return out
}

// matMulTBInto computes out (+)= a @ bᵀ with workers owning disjoint
// output-row ranges. Four output columns (= rows of b) are computed per
// pass over the a row, so each a element is loaded once per four dot
// products; every dot product keeps its own accumulator summed in
// ascending k order, so each output element is the identical left-to-right
// sum at any worker count and any blocking.
func matMulTBInto(out, a, b *Tensor, accum bool) {
	if a.ColsN != b.ColsN {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch %dx%d @ᵀ %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	kDim := a.ColsN
	// flops per output row = kDim*rows(b): one length-kDim dot product per
	// row of b, independent of cols(b)'s role in the forward kernel.
	parallel.For(a.RowsN, rowGrain(kDim*b.RowsN), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			j := 0
			for ; j+4 <= b.RowsN; j += 4 {
				b0 := b.Data[j*kDim : j*kDim+kDim]
				b1 := b.Data[(j+1)*kDim : (j+1)*kDim+kDim]
				b2 := b.Data[(j+2)*kDim : (j+2)*kDim+kDim]
				b3 := b.Data[(j+3)*kDim : (j+3)*kDim+kDim]
				var s0, s1, s2, s3 float32
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				if accum {
					orow[j] += s0
					orow[j+1] += s1
					orow[j+2] += s2
					orow[j+3] += s3
				} else {
					orow[j] = s0
					orow[j+1] = s1
					orow[j+2] = s2
					orow[j+3] = s3
				}
			}
			for ; j < b.RowsN; j++ {
				brow := b.Row(j)
				var s float32
				for k, av := range arow {
					s += av * brow[k]
				}
				if accum {
					orow[j] += s
				} else {
					orow[j] = s
				}
			}
		}
	})
}

// Transpose returns aᵀ as a new tensor.
func Transpose(a *Tensor) *Tensor {
	out := New(a.ColsN, a.RowsN)
	for i := 0; i < a.RowsN; i++ {
		for j := 0; j < a.ColsN; j++ {
			out.Data[j*a.RowsN+i] = a.Data[i*a.ColsN+j]
		}
	}
	return out
}

// elemGrain is the element count per shard for the parallel elementwise
// kernels: big enough to amortize a goroutine dispatch, small enough that
// activation-sized tensors fan out. Like rowGrain it is a constant of the
// problem, never of the worker count, so shard structure — and results —
// are identical for any parallelism.
const elemGrain = 1 << 15

// elemRowGrain returns a row grain targeting ~elemGrain elements per shard
// for kernels that must shard on whole rows.
func elemRowGrain(cols int) int {
	g := elemGrain / (cols + 1)
	if g < 1 {
		g = 1
	}
	return g
}

// AddInto computes dst += src elementwise. Shards own disjoint element
// ranges, so the parallel result is bitwise-identical to serial.
func AddInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic("tensor: AddInto shape mismatch")
	}
	d, s := dst.Data, src.Data
	parallel.For(len(s), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] += s[i]
		}
	})
}

// AXPY computes dst += alpha * src elementwise.
func AXPY(dst *Tensor, alpha float32, src *Tensor) {
	if !dst.SameShape(src) {
		panic("tensor: AXPY shape mismatch")
	}
	d, s := dst.Data, src.Data
	parallel.For(len(s), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] += alpha * s[i]
		}
	})
}
