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
// adds), small enough that big matrices fan out across every core. The
// caller passes its own per-output-row multiply-add count. It is a function
// of the row cost only — never of the worker count — so the shard
// structure is identical for any parallelism. The dot-product kernel
// (matMulTBInto) uses it as is; the tiled kernels round it up to tileRows.
func rowGrain(flopsPerRow int) int {
	const target = 1 << 16
	g := target / (flopsPerRow + 1)
	if g < 1 {
		g = 1
	}
	return g
}

const (
	// tileRows is the output-row granule of the tiled kernels: a shard owns
	// a multiple of it, however much a row costs. A row of aᵀ·b costs
	// rows(a)·cols(b) multiply-adds, which at training shapes makes
	// rowGrain one row, and a one-row shard streams all of b to fill that
	// row: 200 such shards read a 1.7 MB b 200 times for a 50 KB output.
	tileRows = 16
	// kChunk is how many k steps of b (kChunk rows of it) a shard walks
	// before moving on: every row of the shard uses that chunk while it is
	// still in cache, so b is read once per shard rather than once per
	// output row. A multiple of four, so chunk boundaries never split a
	// four-term group.
	kChunk = 256
)

// matMulInto computes out (+)= a @ b. When accum is true the product is
// added to out instead of overwriting it.
func matMulInto(out, a, b *Tensor, accum bool) {
	if !accum {
		out.Zero()
	}
	gemm(out, colBlocks(a, nil), b.Data, nil, false)
}

// matMulTAInto computes out (+)= [a1 ‖ a2]ᵀ @ b, reading a1 and a2 in
// place: output row i is column i of [a1 ‖ a2] against all of b, so a
// shard's rows share every chunk of b it loads, and rows [0, cols(a1))
// read a1 while the rest read a2 (nil for one block). With accum the
// product is added to out, which is how the backward pass writes weight
// gradients without a temporary.
func matMulTAInto(out, a1, a2, b *Tensor, accum bool) {
	if a1.RowsN != b.RowsN || a2 != nil && a2.RowsN != b.RowsN {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %dx%d ᵀ@ %dx%d", a1.RowsN, a1.ColsN, b.RowsN, b.ColsN))
	}
	if !accum {
		out.Zero()
	}
	gemm(out, rowBlocks(a1, a2), b.Data, nil, false)
}

// operand is gemm's multiplier A in one or two blocks. With byK the blocks
// split A's k range at split: A = [X1 ‖ X2], the forward's multiplier,
// whose second block is the aggregate beside the self rows. Without, they
// split A's rows at split: A = [X1 ‖ X2]ᵀ, the weight gradient's, which
// reads both blocks transposed in place. A one-block operand has split at
// the end of its range. Each block is indexed by the whole matrix's i and k
// (see block), and at picks the one holding an element.
type operand struct {
	blk   [2]block
	kDim  int
	split int
	byK   bool
}

// block is one block of an operand: A(i, k) = a[off + i*rs + k*ks], where
// off folds the block's start in the split dimension away.
type block struct {
	a           []float32
	off, rs, ks int
}

// colBlocks is the operand [x1 ‖ x2] (x2 nil for x1 alone): both blocks
// row-major with x1's row count, walked k over x1 and then over x2.
func colBlocks(x1, x2 *Tensor) operand {
	f1 := x1.ColsN
	op := operand{blk: [2]block{{a: x1.Data, rs: f1, ks: 1}}, kDim: f1, split: f1, byK: true}
	if x2 != nil {
		if x2.RowsN != x1.RowsN {
			panic(fmt.Sprintf("tensor: column blocks of %d and %d rows", x1.RowsN, x2.RowsN))
		}
		op.blk[1] = block{a: x2.Data, off: -f1, rs: x2.ColsN, ks: 1}
		op.kDim += x2.ColsN
	}
	return op
}

// rowBlocks is the operand [x1 ‖ x2]ᵀ (x2 nil for x1ᵀ alone), read in
// place: rows [0, cols(x1)) are the columns of x1, the rest those of x2,
// and k runs over their shared rows.
func rowBlocks(x1, x2 *Tensor) operand {
	f1 := x1.ColsN
	op := operand{blk: [2]block{{a: x1.Data, rs: 1, ks: f1}}, kDim: x1.RowsN, split: f1}
	if x2 != nil {
		op.blk[1] = block{a: x2.Data, off: -f1, rs: 1, ks: x2.ColsN}
	}
	return op
}

// gemm adds A·B into out, where A is the operand a and B is b read as an
// a.kDim×cols(out) row-major matrix.
//
// Every output element adds its terms one at a time in ascending k, and a
// term whose multiplier A(i, k) is ±0 is skipped rather than multiplied
// through (0·Inf is NaN, and adding +0 turns a -0 accumulator into +0). The
// result is therefore the serial loop
//
//	for k := range kDim { if A(i,k) != 0 { out[i][j] += A(i,k) * B[k][j] } }
//
// bit for bit, whatever the tiling, the shard structure, the worker count
// or the split of A into blocks.
//
// Shards own tileRows-aligned blocks of output rows and walk k in chunks of
// kChunk: over a's first k block and then its second, all in the one
// parallel.For, so a chunk never spans the two. Per chunk, each output row
// takes its multipliers (chunkTerms): a row with no zero in the chunk uses
// them as they are, one with a zero packs its nonzero ones and their b
// offsets. They are applied four at a time in one pass over the output
// row, so a zero costs nothing and no pass is guarded. When both rows of a
// pair have no zero in the chunk, the pair shares the pass: each b element
// loaded feeds both rows (a 2-row × 4-k register tile). On amd64 with AVX2
// both passes run eight output columns per instruction (useLanes), each
// lane in the scalar loop's order.
//
// A non-nil bias is the epilogue: after its last chunk each shard adds bias
// to its own rows and, with relu, clamps every sum that is not greater than
// 0 to +0, while the rows are still in cache.
//
// The lanes do not bounds-check b. Every offset chunkTerms hands out is k*n
// with k < kDim, so the one length check below keeps them inside it.
func gemm(out *Tensor, a operand, b, bias []float32, relu bool) {
	n, kDim := out.ColsN, a.kDim
	if len(b) != kDim*n {
		panic(fmt.Sprintf("tensor: gemm needs a %d×%d b, got %d values", kDim, n, len(b)))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: gemm needs a %d-wide bias, got %d values", n, len(bias)))
	}
	// segs are the k ranges walked in turn: the two k blocks, or all of k
	// when the blocks split the rows.
	segs := [3]int{0, a.split, kDim}
	if !a.byK {
		segs[1] = kDim
	}
	grain := (rowGrain(kDim*n) + tileRows - 1) / tileRows * tileRows
	parallel.For(out.RowsN, grain, func(lo, hi int) {
		var v0, v1 [kChunk]float32
		var off0, off1, dense [kChunk]int
		for q := range 2 {
			for k0 := segs[q]; k0 < segs[q+1]; k0 += kChunk {
				k1 := min(k0+kChunk, segs[q+1])
				for k := k0; k < k1; k++ {
					dense[k-k0] = k * n
				}
				for i := lo; i < hi; i += 2 {
					o0 := out.Data[i*n : i*n+n]
					x0, f0 := chunkTerms(&v0, &off0, &dense, a.at(i, q), i, k0, k1, n)
					if i+1 == hi {
						addTerms(o0, b, x0, f0)
						break
					}
					o1 := out.Data[(i+1)*n : (i+1)*n+n]
					x1, f1 := chunkTerms(&v1, &off1, &dense, a.at(i+1, q), i+1, k0, k1, n)
					if len(x0) == k1-k0 && len(x1) == k1-k0 {
						addPair(o0, o1, b[k0*n:k1*n], x0, x1)
						continue
					}
					addTerms(o0, b, x0, f0)
					addTerms(o1, b, x1, f1)
				}
			}
		}
		if bias != nil {
			biasRows(out.Data[lo*n:hi*n], bias, relu)
		}
	})
}

// at returns the block holding row i's multipliers in k segment q.
func (a *operand) at(i, q int) *block {
	if a.byK && q == 1 || !a.byK && i >= a.split {
		return &a.blk[1]
	}
	return &a.blk[0]
}

// nonzero is 1 when x is not ±0 and 0 when it is — the zero-skip test as an
// integer bit test. NaN counts as nonzero, exactly as under x != 0.
func nonzero(x float32) int {
	return int((math.Float32bits(x)&0x7fffffff + 0x7fffffff) >> 31)
}

// chunkTerms returns the nonzero multipliers A(i, k), k in [k0, k1), of
// output row i, all in block p, in ascending k, and the offsets k*n of the
// b rows they scale. A row with no zero in the chunk needs no packing: its
// multipliers are p's values themselves when they are contiguous (ks == 1,
// found by a scan, not a copy), or the gathered column when not, and its
// offsets are dense, the chunk's k*n in order. A row with a zero is packed
// into v and off.
func chunkTerms(v *[kChunk]float32, off, dense *[kChunk]int, p *block, i, k0, k1, n int) ([]float32, []int) {
	kc := k1 - k0
	a, base, ks := p.a, p.off+i*p.rs, p.ks
	if ks == 1 {
		row := a[base+k0 : base+k1]
		if !hasZero(row) {
			return row, dense[:kc]
		}
		c := packNonzero(v, off, row, k0, n)
		return v[:c], off[:c]
	}
	all := 1
	for t := range kc {
		x := a[base+(k0+t)*ks]
		v[t] = x
		all &= nonzero(x)
	}
	if all == 1 {
		return v[:kc], dense[:kc]
	}
	c := packNonzero(v, off, v[:kc], k0, n)
	return v[:c], off[:c]
}

// packNonzero writes the nonzero values of x, the multipliers of k in
// [k0, k0+len(x)), to v in ascending k, with k*n — the offset of the b row
// each one scales — at the same index of off, and returns how many there
// are. x may be v itself: the write index never passes the read index.
func packNonzero(v *[kChunk]float32, off *[kChunk]int, x []float32, k0, n int) int {
	c := 0
	for t, y := range x {
		v[c] = y
		off[c] = (k0 + t) * n
		c += nonzero(y)
	}
	return c
}

// hasZero reports whether any value of a is ±0; NaN is not zero. With
// useLanes, zeroLanes scans the first len(a) &^ 7 values.
func hasZero(a []float32) bool {
	j := 0
	if useLanes {
		if zeroLanes(a) {
			return true
		}
		j = len(a) &^ 7
	}
	for _, x := range a[j:] {
		if nonzero(x) == 0 {
			return true
		}
	}
	return false
}

// biasRows is gemm's epilogue on o, whole rows len(bias) wide: every value
// becomes o + bias[j] and, with relu, +0 unless that sum is greater than 0.
// With useLanes, biasLanes runs the first len(bias) &^ 7 columns of every
// row and the Go loop the rest.
func biasRows(o, bias []float32, relu bool) {
	n := len(bias)
	j := 0
	if useLanes {
		j = n &^ 7
		biasLanes(o, bias[:j], n, relu)
	}
	if j == n {
		return
	}
	bt := bias[j:]
	for i := 0; i < len(o); i += n {
		row := o[i+j : i+n]
		for q, x := range bt {
			y := row[q] + x
			if relu && !(y > 0) {
				y = 0
			}
			row[q] = y
		}
	}
}

// addTerms adds v[t]·b[off[t] : off[t]+len(o)] to o for every t, in order,
// four terms per pass over o and the len(v) % 4 left over one at a time.
// With useLanes, addTermsLanes runs the four-term passes over the first
// len(o) &^ 7 columns, eight at a time, and addTerms4 the rest: each column
// is its own sum, so splitting the columns keeps every element's order.
func addTerms(o, b []float32, v []float32, off []int) {
	n := len(o)
	g := len(v) &^ 3
	j := 0
	if useLanes {
		j = n &^ 7
		addTermsLanes(o[:j], b, v[:g], off[:g])
	}
	if j < n {
		addTerms4(o[j:], b[j:], v[:g], off[:g])
	}
	for t := g; t < len(v); t++ {
		x := v[t]
		bt := b[off[t]:][:n]
		for j := range o {
			o[j] += x * bt[j]
		}
	}
}

// addTerms4 adds v[t]·b[off[t] : off[t]+len(o)] to o for every t, in order,
// four terms per pass over o; len(v) is a multiple of four.
func addTerms4(o, b []float32, v []float32, off []int) {
	n := len(o)
	for t := 0; t+4 <= len(v); t += 4 {
		x0, x1, x2, x3 := v[t], v[t+1], v[t+2], v[t+3]
		b0 := b[off[t]:][:n]
		b1 := b[off[t+1]:][:n]
		b2 := b[off[t+2]:][:n]
		b3 := b[off[t+3]:][:n]
		for j := range o {
			s := o[j]
			s += x0 * b0[j]
			s += x1 * b1[j]
			s += x2 * b2[j]
			s += x3 * b3[j]
			o[j] = s
		}
	}
}

// addPair adds v0[t]·B[t] to o0 and v1[t]·B[t] to o1 for every t in order,
// where B[t] is row t of the len(v0)×len(o0) matrix b: each b element is
// loaded once for both rows. The columns split as in addTerms.
func addPair(o0, o1, b []float32, v0, v1 []float32) {
	n := len(o0)
	o1 = o1[:n]
	g := len(v0) &^ 3
	j := 0
	if useLanes {
		j = n &^ 7
		addPairLanes(o0[:j], o1[:j], b[:g*n], v0[:g], v1[:g], n)
	}
	if j < n {
		addPair4(o0[j:], o1[j:], b[j:], v0[:g], v1[:g], n)
	}
	for t := g; t < len(v0); t++ {
		x, y := v0[t], v1[t]
		bt := b[t*n:][:n]
		for j := range o0 {
			o0[j] += x * bt[j]
			o1[j] += y * bt[j]
		}
	}
}

// addPair4 is addPair's four-term passes on the columns of o0 and o1, where
// B[t] starts at b[t*stride]; len(v0) is a multiple of four.
func addPair4(o0, o1, b []float32, v0, v1 []float32, stride int) {
	n := len(o0)
	o1 = o1[:n]
	for t := 0; t+4 <= len(v0); t += 4 {
		x0, x1, x2, x3 := v0[t], v0[t+1], v0[t+2], v0[t+3]
		y0, y1, y2, y3 := v1[t], v1[t+1], v1[t+2], v1[t+3]
		b0 := b[t*stride:][:n]
		b1 := b[(t+1)*stride:][:n]
		b2 := b[(t+2)*stride:][:n]
		b3 := b[(t+3)*stride:][:n]
		for j := range o0 {
			p0, p1, p2, p3 := b0[j], b1[j], b2[j], b3[j]
			s := o0[j]
			s += x0 * p0
			s += x1 * p1
			s += x2 * p2
			s += x3 * p3
			o0[j] = s
			u := o1[j]
			u += y0 * p0
			u += y1 * p1
			u += y2 * p2
			u += y3 * p3
			o1[j] = u
		}
	}
}

// matMulTBInto computes [o1 ‖ o2] (+)= a @ bᵀ with workers owning
// disjoint output-row ranges: output column j is the dot product with row j
// of b, o1 holds columns [0, n1) and o2 the rest, and a nil block's columns
// are skipped (o1 alone, with o2 nil, is the plain product). Four output
// columns (= rows of b) are computed per pass over the a row, so each a
// element is loaded once per four dot products; every dot product keeps
// its own accumulator summed in ascending k order, so each output element
// is the identical left-to-right sum at any worker count, any blocking and
// any split of the columns.
func matMulTBInto(o1, o2, a, b *Tensor, accum bool) {
	if a.ColsN != b.ColsN {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch %dx%d @ᵀ %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	n1 := b.RowsN
	switch {
	case o2 != nil:
		n1 -= o2.ColsN
	case o1 != nil:
		n1 = o1.ColsN
	}
	if o1 != nil && o1.ColsN != n1 || n1 < 0 {
		panic(fmt.Sprintf("tensor: MatMulTB output blocks do not split %d columns", b.RowsN))
	}
	kDim := a.ColsN
	// flops per output row = kDim*rows(b): one length-kDim dot product per
	// row of b, independent of cols(b)'s role in the forward kernel.
	parallel.For(a.RowsN, rowGrain(kDim*b.RowsN), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			if o1 != nil {
				dotRows(o1.Row(i), arow, b.Data[:n1*kDim], accum)
			}
			if o2 != nil {
				dotRows(o2.Row(i), arow, b.Data[n1*kDim:], accum)
			}
		}
	})
}

// dotRows sets (or, with accum, adds to) orow[j] the dot product of arow
// with row j of b, rows len(arow) wide, summed from +0 in ascending k.
func dotRows(orow, arow, b []float32, accum bool) {
	kDim := len(arow)
	j := 0
	for ; j+4 <= len(orow); j += 4 {
		b0 := b[j*kDim : j*kDim+kDim]
		b1 := b[(j+1)*kDim : (j+1)*kDim+kDim]
		b2 := b[(j+2)*kDim : (j+2)*kDim+kDim]
		b3 := b[(j+3)*kDim : (j+3)*kDim+kDim]
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
	for ; j < len(orow); j++ {
		brow := b[j*kDim : j*kDim+kDim]
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
