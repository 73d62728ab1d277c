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
// structure is identical for any parallelism. gemm rounds it up to
// tileRows, and matMulTBInto to the tile's four rows.
func rowGrain(flopsPerRow int) int {
	const target = 1 << 16
	g := target / (flopsPerRow + 1)
	if g < 1 {
		g = 1
	}
	return g
}

const (
	// tileRows is the output-row granule of gemm: a shard owns a multiple
	// of it, however much a row costs. A row of aᵀ·b costs rows(a)·cols(b)
	// multiply-adds, which at training shapes makes rowGrain one row, and a
	// one-row shard streams all of b to fill that row: 200 such shards read
	// a 1.7 MB b 200 times for a 50 KB output.
	tileRows = 16
	// wgradRows is the least a weight-gradient shard owns: two tile blocks,
	// so each chunk of b it loads serves twice the rows, and the panel
	// copies of a chunk read two adjacent lines of each row of X.
	wgradRows = 2 * tileRows
	// kChunk is how many k steps of b (kChunk rows of it) a shard walks
	// before moving on: every row of the shard uses that chunk while it is
	// still in cache, so b is read once per shard rather than once per
	// output row.
	kChunk = 256
	// padStride is added to the row stride of a copied multiplier panel
	// (the weight gradient's, and the input gradient's bᵀ): at a stride
	// that is a multiple of 1 KiB, every row of a column walk maps to the
	// same few L1 sets, and loads alias the stores of 4 KiB before them.
	padStride = 16
	// panelStride is the row stride of the weight gradient's panel.
	panelStride = kChunk + padStride
)

// The accumulate modes of the tile and row passes. Each output element
// sums its terms s = s + x·p, one at a time in ascending k, from a start,
// and ends in the output:
//
//	sumOnto  s starts at the output, which becomes s
//	sumSet   s starts at +0, and the output becomes s
//	sumAdd   s starts at +0, and the output becomes output + s
//
// sumSet never reads the output, so its buffer may hold anything. A sum
// that starts at +0 can never be −0 (x + y is −0 only when both are), so
// storing it gives the same bits as adding it to a +0 output: sumSet is
// sumOnto over a zeroed buffer, without the zeroing.
const (
	sumOnto = iota
	sumSet
	sumAdd
)

// matMulInto computes out (+)= a @ b. When accum is true the product is
// added to out; otherwise out is overwritten and its values never read.
func matMulInto(out, a, b *Tensor, accum bool) {
	gemmInto(out, colBlocks(a, nil), b.Data, nil, false, accum)
}

// matMulTAInto computes out (+)= [a1 ‖ a2]ᵀ @ b: output row i is column i
// of [a1 ‖ a2] against all of b, so a shard's rows share every chunk of b
// it loads, and rows [0, cols(a1)) read a1 while the rest read a2 (nil for
// one block). With accum the product is added to out, which is how the
// backward pass writes weight gradients without a temporary.
func matMulTAInto(out, a1, a2, b *Tensor, accum bool) {
	if a1.RowsN != b.RowsN || a2 != nil && a2.RowsN != b.RowsN {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %dx%d ᵀ@ %dx%d", a1.RowsN, a1.ColsN, b.RowsN, b.ColsN))
	}
	gemmInto(out, rowBlocks(a1, a2), b.Data, nil, false, accum)
}

// operand is gemm's multiplier A in one or two blocks. With byK the blocks
// split A's k range at split: A = [X1 ‖ X2], the forward's multiplier,
// whose second block is the aggregate beside the self rows. Without, they
// split A's rows at split: A = [X1 ‖ X2]ᵀ, the weight gradient's, which
// reads both blocks transposed. A one-block operand has split at the end of
// its range. Each block is indexed by the whole matrix's i and k (see
// block), and at picks the one holding an element.
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

// rowBlocks is the operand [x1 ‖ x2]ᵀ (x2 nil for x1ᵀ alone): rows
// [0, cols(x1)) are the columns of x1, the rest those of x2, and k runs
// over their shared rows.
func rowBlocks(x1, x2 *Tensor) operand {
	f1 := x1.ColsN
	op := operand{blk: [2]block{{a: x1.Data, rs: 1, ks: f1}}, kDim: x1.RowsN, split: f1}
	if x2 != nil {
		op.blk[1] = block{a: x2.Data, off: -f1, rs: 1, ks: x2.ColsN}
	}
	return op
}

// gemmInto computes out (+)= A·B, where A is the operand a and B is b read
// as an a.kDim×cols(out) row-major matrix. With accum the product is added
// to out; without, out is overwritten and never read.
//
// Every output element adds its terms one at a time in ascending k onto its
// start (out, or +0), and a term whose multiplier A(i, k) is ±0 is skipped
// rather than multiplied through (0·Inf is NaN, and adding +0 turns a -0
// accumulator into +0). The result is therefore the serial loop
//
//	for k := range kDim { if A(i,k) != 0 { out[i][j] += A(i,k) * B[k][j] } }
//
// over out or over zeros, bit for bit, whatever the tiling, the shard
// structure, the worker count or the split of A into blocks.
//
// Shards own tileRows-aligned blocks of output rows and walk k in chunks of
// kChunk: over a's first k block and then its second, all in the one
// parallel.For, so a chunk never spans the two. Per chunk each output row
// takes its multipliers (operand.rows): the forward's are its rows of the
// block as they lie; the weight gradient's are columns of its blocks,
// copied once per chunk into a row-contiguous panel. Four rows with no ±0
// in the chunk run as one register tile (tile): every b element loaded
// feeds four rows, and their sums stay in registers for the whole chunk.
// A row with a zero runs alone (addRow) over its nonzero multipliers,
// packed with the offsets of the b rows they scale (packNonzero), and so do
// the other rows of its group. So a zero costs no work, the tile never adds
// a zero product, and no inner loop is guarded.
//
// A non-nil bias is the epilogue: after its last chunk each shard adds bias
// to its own rows and, with relu, clamps every sum that is not greater than
// 0 to +0, while the rows are still in cache.
//
// The lanes do not bounds-check b. Every offset a row pass is handed is k*n
// with k < kDim, so the one length check below keeps them inside it.
func gemmInto(out *Tensor, a operand, b, bias []float32, relu, accum bool) {
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
	if !a.byK {
		grain = max(grain, wgradRows)
	}
	parallel.For(out.RowsN, grain, func(lo, hi int) {
		var panel []float32
		if !a.byK {
			panel = take(tileRows*panelStride, false)
			defer release(panel)
		}
		var v [kChunk]float32
		var off, dense [kChunk]int
		mode := sumOnto
		if !accum {
			mode = sumSet
			if kDim == 0 {
				clear(out.Data[lo*n : hi*n])
			}
		}
		for q := range 2 {
			for k0 := segs[q]; k0 < segs[q+1]; k0 += kChunk {
				k1 := min(k0+kChunk, segs[q+1])
				for k := k0; k < k1; k++ {
					dense[k-k0] = k * n
				}
				for r0 := lo; r0 < hi; r0 += tileRows {
					r1 := min(r0+tileRows, hi)
					rows := a.rows(q, r0, r1, k0, k1, panel)
					for i := r0; i < r1; i += 4 {
						mr := min(4, r1-i)
						var c, x [4][]float32
						var zero [4]bool
						for r := range mr {
							c[r] = out.Data[(i+r)*n : (i+r+1)*n]
							x[r] = rows[i-r0+r]
							zero[r] = hasZero(x[r])
						}
						if zero == [4]bool{} {
							tile(&c, &x, mr, b[k0*n:], n, mode)
							continue
						}
						for r := range mr {
							if !zero[r] {
								addRow(c[r], b, x[r], dense[:k1-k0], mode)
								continue
							}
							m := packNonzero(&v, &off, x[r], k0, n)
							addRow(c[r], b, v[:m], off[:m], mode)
						}
					}
				}
				mode = sumOnto
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

// rows returns the multipliers A(i, k), k in [k0, k1) of segment q, of
// output rows [r0, r1), at most tileRows of them, one slice per row. The
// forward's are the rows of its block as they lie. The weight gradient's
// are columns of its blocks, which rows copies into panel, one row of
// panelStride per output row: each k reads the shard's columns from one
// contiguous run of a block's row k.
func (a *operand) rows(q, r0, r1, k0, k1 int, panel []float32) (rs [tileRows][]float32) {
	if a.byK {
		p := &a.blk[q]
		for i := r0; i < r1; i++ {
			base := p.off + i*p.rs
			rs[i-r0] = p.a[base+k0 : base+k1]
		}
		return rs
	}
	for i := r0; i < r1; {
		p, e := a.at(i, q), r1
		if i < a.split {
			e = min(r1, a.split)
		}
		transpose(panel[(i-r0)*panelStride:], p.a[p.off+k0*p.ks+i:], p.ks, panelStride, e-i, k1-k0)
		i = e
	}
	for r := range r1 - r0 {
		rs[r] = panel[r*panelStride : r*panelStride+k1-k0]
	}
	return rs
}

// transpose sets dst[r*ds+t] = src[t*ks+r] for r < rows and t < cols: the
// cols×rows block of src (row stride ks) as rows×cols in dst (row stride
// ds). With useLanes, transposeLanes moves its 8 × 8 blocks and the Go
// loop the rest.
func transpose(dst, src []float32, ks, ds, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	_ = src[(cols-1)*ks+rows-1]
	_ = dst[(rows-1)*ds+cols-1]
	r8, c8 := 0, 0
	if useLanes {
		r8, c8 = rows&^7, cols&^7
		transposeLanes(dst, src, ks, ds, rows, cols)
	}
	for t := range cols {
		r := r8
		if t >= c8 {
			r = 0
		}
		for ; r < rows; r++ {
			dst[r*ds+t] = src[t*ks+r]
		}
	}
}

// nonzero is 1 when x is not ±0 and 0 when it is — the zero-skip test as an
// integer bit test. NaN counts as nonzero, exactly as under x != 0.
func nonzero(x float32) int {
	return int((math.Float32bits(x)&0x7fffffff + 0x7fffffff) >> 31)
}

// packNonzero writes the nonzero values of x, the multipliers of k in
// [k0, k0+len(x)), to v in ascending k, with k*n — the offset of the b row
// each one scales — at the same index of off, and returns how many there
// are.
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
// With useLanes, biasLanes runs every column, the last len(bias) % 8
// masked.
func biasRows(o, bias []float32, relu bool) {
	if useLanes {
		biasLanes(o, bias, relu)
		return
	}
	n := len(bias)
	for i := 0; i < len(o); i += n {
		row := o[i : i+n]
		for j, x := range bias {
			y := row[j] + x
			if relu && !(y > 0) {
				y = 0
			}
			row[j] = y
		}
	}
}

// tile is the register tile: for each row r < mr and every column j of
// c[r], the terms a[r][t]·b[t*ldb+j], t < len(a[0]), are summed in
// ascending t as mode says. Every c[r] is as wide as c[0] and every a[r]
// as long as a[0]. With useLanes, tileLanes keeps 4 rows × 16 columns of
// sums in registers for all the terms; rows from mr up repeat row mr-1
// there, so they compute and store its values again.
func tile(c, a *[4][]float32, mr int, b []float32, ldb, mode int) {
	n, kc := len(c[0]), len(a[0])
	for r := range mr {
		if len(c[r]) != n || len(a[r]) != kc {
			panic("tensor: tile rows of unequal length")
		}
	}
	if kc > 0 && n > 0 {
		_ = b[(kc-1)*ldb+n-1]
	}
	if !useLanes {
		for r := range mr {
			sumRow(c[r], b, a[r], nil, ldb, mode)
		}
		return
	}
	for r := mr; r < 4; r++ {
		c[r], a[r] = c[mr-1], a[mr-1]
	}
	tileLanes(c, a, b, ldb, mode)
}

// addRow sums, for every column j of c, the terms v[t]·b[off[t]+j] in
// order, as mode (sumOnto or sumSet) says: one row of gemm alone, holding
// its sums in registers (rowLanes) with useLanes.
func addRow(c, b, v []float32, off []int, mode int) {
	if useLanes {
		rowLanes(c, b, v, off, mode)
		return
	}
	sumRow(c, b, v, off, 0, mode)
}

// sumRow is the Go loop behind tile and addRow: for every column j of c,
// the terms v[t]·b[o+j], o = off[t] (t*stride when off is nil), summed in
// ascending t as mode says, eight columns of sums at a time.
func sumRow(c, b, v []float32, off []int, stride, mode int) {
	for j0 := 0; j0 < len(c); j0 += 8 {
		w := min(8, len(c)-j0)
		var s [8]float32
		if mode == sumOnto {
			copy(s[:w], c[j0:])
		}
		for t, x := range v {
			o := t * stride
			if off != nil {
				o = off[t]
			}
			for q, y := range b[o+j0 : o+j0+w] {
				s[q] += x * y
			}
		}
		for q := range w {
			if mode == sumAdd {
				c[j0+q] += s[q]
			} else {
				c[j0+q] = s[q]
			}
		}
	}
}

// matMulTBInto computes [o1 ‖ o2] (+)= a @ bᵀ with workers owning
// disjoint output-row ranges: output column j is the dot product with row j
// of b, o1 holds columns [0, n1) and o2 the rest, and a nil block's columns
// are skipped (o1 alone, with o2 nil, is the plain product). It copies b
// once into bᵀ, kDim rows of a padded stride, and runs the register tile
// over it with no zero skip: every element is its dot product summed from
// +0 in ascending k, then added to the output (or stored, without accum),
// at any worker count, any blocking and any split of the columns.
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
	kDim, cols := a.ColsN, b.RowsN
	ldt := cols + padStride
	// Every value read from bt is written here first; one row at least, so
	// that o2's columns start inside it when kDim is 0.
	bt := take(max(kDim, 1)*ldt, false)
	defer release(bt)
	transpose(bt, b.Data, kDim, ldt, kDim, cols)
	mode := sumSet
	if accum {
		mode = sumAdd
	}
	blocks := [2]struct {
		o  *Tensor
		j0 int
	}{{o1, 0}, {o2, n1}}
	// flops per output row = kDim*rows(b): one length-kDim dot product per
	// row of b.
	parallel.For(a.RowsN, (rowGrain(kDim*cols)+3)&^3, func(lo, hi int) {
		for i := lo; i < hi; i += 4 {
			mr := min(4, hi-i)
			var x [4][]float32
			for r := range mr {
				x[r] = a.Row(i + r)
			}
			for _, blk := range blocks {
				if blk.o == nil {
					continue
				}
				var c [4][]float32
				for r := range mr {
					c[r] = blk.o.Row(i + r)
				}
				tile(&c, &x, mr, bt[blk.j0:], ldt, mode)
			}
		}
	})
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
