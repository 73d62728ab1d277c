package tensor

import (
	"fmt"
	"math"

	"betty/internal/parallel"
)

// Var is a node in the autograd graph: a tensor value plus an optional
// gradient of the final loss with respect to it.
//
// Leaf Vars (created with Leaf or Param) live across training steps; their
// gradients accumulate until ZeroGrad is called, which is exactly the
// mechanism micro-batch gradient accumulation relies on. Interior Vars are
// created by Tape operations and live for one forward/backward pass.
type Var struct {
	Value *Tensor
	Grad  *Tensor // lazily allocated on first gradient contribution

	requiresGrad bool
	back         func() // propagates v.Grad into the parents' gradients
	tape         *Tape  // owning tape for interior Vars; nil for leaves
}

// Leaf wraps a tensor as a constant input (no gradient is tracked).
func Leaf(t *Tensor) *Var { return &Var{Value: t} }

// Param wraps a tensor as a trainable parameter whose gradient accumulates
// across backward passes until ZeroGrad.
func Param(t *Tensor) *Var { return &Var{Value: t, requiresGrad: true} }

// ZeroGrad clears the accumulated gradient.
func (v *Var) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// grad returns v.Grad, allocating a zero tensor if needed. Used by backward
// closures that write into the gradient incrementally. Interior Vars draw
// the allocation from their tape's pooled arena; leaf and parameter
// gradients persist across steps and are never pooled.
func (v *Var) grad() *Tensor {
	if v.Grad == nil {
		if v.tape != nil {
			v.Grad = v.tape.alloc(v.Value.RowsN, v.Value.ColsN)
		} else {
			v.Grad = New(v.Value.RowsN, v.Value.ColsN)
		}
	}
	return v.Grad
}

// Tape records operations of one forward pass so they can be replayed in
// reverse for backpropagation. A Tape is single-use per forward pass and is
// not safe for concurrent use.
//
// Every intermediate tensor a tape materializes — op outputs, interior
// gradients, dropout masks — is acquired from the package buffer pool and
// registered on the tape, so Release returns the whole arena at once and
// the next tape (the next micro-batch of the same training batch, whose
// shapes match) runs allocation-free.
type Tape struct {
	ops        []*Var
	valueBytes int64
	owned      [][]float32 // pooled backing slices returned by Release

	// Header arenas: Var and Tensor structs are carved out of fixed-size
	// chunks that Release rewinds but keeps, so a reused tape (the runner
	// holds one across micro-batches) records its whole graph without
	// allocating a single header. Chunks are never reallocated in place, so
	// handed-out pointers stay valid until Release recycles them.
	varChunks  [][]Var
	varC, varI int
	tenChunks  [][]Tensor
	tenC, tenI int
}

// arenaChunk is the Var/Tensor count per arena chunk.
const arenaChunk = 256

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// newVar carves a Var header out of the tape's arena. The caller assigns
// every field, so rewound headers need no explicit zeroing.
func (tp *Tape) newVar(v Var) *Var {
	if tp.varC == len(tp.varChunks) {
		tp.varChunks = append(tp.varChunks, make([]Var, arenaChunk))
	}
	p := &tp.varChunks[tp.varC][tp.varI]
	*p = v
	tp.varI++
	if tp.varI == arenaChunk {
		tp.varC, tp.varI = tp.varC+1, 0
	}
	return p
}

// newTensor carves a Tensor header out of the tape's arena.
func (tp *Tape) newTensor(t Tensor) *Tensor {
	if tp.tenC == len(tp.tenChunks) {
		tp.tenChunks = append(tp.tenChunks, make([]Tensor, arenaChunk))
	}
	p := &tp.tenChunks[tp.tenC][tp.tenI]
	*p = t
	tp.tenI++
	if tp.tenI == arenaChunk {
		tp.tenC, tp.tenI = tp.tenC+1, 0
	}
	return p
}

// allocF32 acquires a zeroed length-n slice from the buffer pool (or the
// heap when pooling is off) and registers it for Release.
func (tp *Tape) allocF32(n int) []float32 {
	s := acquire(n)
	if s != nil {
		tp.owned = append(tp.owned, s)
	}
	return s
}

// alloc returns a zeroed rows x cols tensor backed by the tape's arena.
func (tp *Tape) alloc(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return tp.newTensor(Tensor{RowsN: rows, ColsN: cols, Data: tp.allocF32(rows * cols)})
}

// Alloc returns a zeroed rows x cols tensor whose backing slice is drawn
// from the buffer pool and returned by Release. Callers use it to stage
// per-batch inputs (gathered features) in the recycled arena; like every
// tape tensor, the result is invalid after Release.
func (tp *Tape) Alloc(rows, cols int) *Tensor { return tp.alloc(rows, cols) }

// Release returns every buffer the tape allocated — the values, gradients,
// and masks of its interior Vars — to the package buffer pool, and rewinds
// the header arenas for reuse. After Release, the Var and Tensor headers
// the tape produced are invalid and must not be read; leaf and parameter
// Vars are unaffected (their storage was never tape-owned). A released
// tape is empty and ready to record the next forward pass — the runner
// reuses one tape across all micro-batches of a batch. Release is
// idempotent, and when pooling is disabled it only drops the buffer
// references for the garbage collector.
func (tp *Tape) Release() {
	for i, s := range tp.owned {
		release(s)
		tp.owned[i] = nil
	}
	tp.owned = tp.owned[:0]
	tp.ops = tp.ops[:0]
	tp.valueBytes = 0
	tp.varC, tp.varI = 0, 0
	tp.tenC, tp.tenI = 0, 0
}

// record registers a new interior Var produced by an operation. The result
// requires a gradient if any input does; operations call record with the
// backward closure already bound.
func (tp *Tape) record(value *Tensor, needsGrad bool, back func()) *Var {
	v := tp.newVar(Var{Value: value, requiresGrad: needsGrad, back: back, tape: tp})
	tp.valueBytes += int64(value.Len()) * 4
	if needsGrad {
		tp.ops = append(tp.ops, v)
	}
	return v
}

// ValueBytes returns the total bytes of every intermediate tensor the tape
// has materialized — the activation memory of the forward pass, which the
// simulated device charges against its capacity.
func (tp *Tape) ValueBytes() int64 { return tp.valueBytes }

func anyGrad(vs ...*Var) bool {
	for _, v := range vs {
		if v.requiresGrad {
			return true
		}
	}
	return false
}

// Backward seeds d(loss)/d(loss) = 1 and runs the tape in reverse,
// accumulating gradients into every Var that requires them. loss must be a
// 1x1 Var produced by this tape.
func (tp *Tape) Backward(loss *Var) {
	if loss.Value.Len() != 1 {
		panic("tensor: Backward requires a scalar loss")
	}
	loss.grad().Data[0] = 1
	for i := len(tp.ops) - 1; i >= 0; i-- {
		op := tp.ops[i]
		if op.Grad != nil && op.back != nil {
			op.back()
		}
	}
}

// NumOps returns the number of recorded differentiable operations,
// used by tests and the memory estimator's activation accounting.
func (tp *Tape) NumOps() int { return len(tp.ops) }

// --- deterministic sharding helpers ---

// segEdgeGrain is the minimum edge count per segment-aligned shard of the
// segment kernels. A constant of the problem, never of the worker count.
const segEdgeGrain = 1 << 13

// segmentBounds splits the edge range [0, len(dst)) into shards of at
// least grain edges whose boundaries fall only where dst changes value, so
// every destination segment lives in exactly one shard and shards own
// disjoint output rows. The boundaries depend only on (dst, grain). When
// dst is not non-decreasing the kernels cannot cut safely and the whole
// range becomes one shard (serial execution) — block edge lists from
// graph.Block.EdgePairs are always sorted by destination.
func segmentBounds(dst []int32, grain int) []int {
	n := len(dst)
	if n == 0 {
		return nil
	}
	bounds := make([]int, 1, n/grain+2)
	last := 0
	for e := 1; e < n; e++ {
		if dst[e] < dst[e-1] {
			return []int{0, n} // unsorted: single serial shard
		}
		if dst[e] != dst[e-1] && e-last >= grain {
			bounds = append(bounds, e)
			last = e
		}
	}
	return append(bounds, n)
}

// invertIndex builds the inverse of a gather index: positions
// pos[cnt[r]:cnt[r+1]] list, in ascending order, the p with idx[p] == r.
// The backward scatter-adds iterate targets row-by-row over this inverse,
// so each target row is owned by one worker and accumulates its
// contributions in the same ascending-p order as the serial kernel —
// bitwise-identical for every worker count.
func invertIndex(idx []int32, rows int) (cnt, pos []int32) {
	cnt = make([]int32, rows+1)
	for _, id := range idx {
		cnt[id+1]++
	}
	for r := 0; r < rows; r++ {
		cnt[r+1] += cnt[r]
	}
	pos = make([]int32, len(idx))
	cursor := make([]int32, rows)
	copy(cursor, cnt[:rows])
	for p, id := range idx {
		pos[cursor[id]] = int32(p)
		cursor[id]++
	}
	return cnt, pos
}

// --- differentiable operations ---

// MatMul computes a @ b.
func (tp *Tape) MatMul(a, b *Var) *Var {
	if a.Value.ColsN != b.Value.RowsN {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d @ %dx%d",
			a.Value.RowsN, a.Value.ColsN, b.Value.RowsN, b.Value.ColsN))
	}
	val := tp.alloc(a.Value.RowsN, b.Value.ColsN)
	matMulInto(val, a.Value, b.Value, false)
	var out *Var
	out = tp.record(val, anyGrad(a, b), func() {
		if a.requiresGrad {
			// dA += dC @ Bᵀ, accumulated in place (no temporary)
			matMulTBInto(a.grad(), out.Grad, b.Value, true)
		}
		if b.requiresGrad {
			// dB += Aᵀ @ dC
			matMulTAInto(b.grad(), a.Value, out.Grad, true)
		}
	})
	return out
}

// Add computes a + b elementwise (same shape).
func (tp *Tape) Add(a, b *Var) *Var {
	if !a.Value.SameShape(b.Value) {
		panic("tensor: Add shape mismatch")
	}
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av, bv := a.Value.Data, b.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			val.Data[i] = av[i] + bv[i]
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(a, b), func() {
		if a.requiresGrad {
			AddInto(a.grad(), out.Grad)
		}
		if b.requiresGrad {
			AddInto(b.grad(), out.Grad)
		}
	})
	return out
}

// Mul computes the Hadamard (elementwise) product a * b.
func (tp *Tape) Mul(a, b *Var) *Var {
	if !a.Value.SameShape(b.Value) {
		panic("tensor: Mul shape mismatch")
	}
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av, bv := a.Value.Data, b.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			val.Data[i] = av[i] * bv[i]
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(a, b), func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					g.Data[i] += out.Grad.Data[i] * bv[i]
				}
			})
		}
		if b.requiresGrad {
			g := b.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					g.Data[i] += out.Grad.Data[i] * av[i]
				}
			})
		}
	})
	return out
}

// Scale computes s * a.
func (tp *Tape) Scale(a *Var, s float32) *Var {
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av := a.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			val.Data[i] = av[i] * s
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			AXPY(a.grad(), s, out.Grad)
		}
	})
	return out
}

// AddBias adds a 1 x n bias row vector b to every row of a (m x n).
func (tp *Tape) AddBias(a, b *Var) *Var {
	if b.Value.RowsN != 1 || b.Value.ColsN != a.Value.ColsN {
		panic("tensor: AddBias requires a 1 x cols bias")
	}
	m, n := a.Value.RowsN, a.Value.ColsN
	val := tp.alloc(m, n)
	bias := b.Value.Data
	parallel.For(m, elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := val.Row(i)
			arow := a.Value.Row(i)
			for j, v := range arow {
				row[j] = v + bias[j]
			}
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(a, b), func() {
		if a.requiresGrad {
			AddInto(a.grad(), out.Grad)
		}
		if b.requiresGrad {
			// The bias gradient is a column-sum over rows folded from
			// per-shard partials in ascending shard order; the partials live
			// in the tape's pooled arena (see addBiasGrad in fused.go, which
			// shares the exact reduction with LinearBiasReLU's backward).
			addBiasGrad(tp, b.grad(), out.Grad)
		}
	})
	return out
}

// ReLU computes max(0, a) elementwise.
func (tp *Tape) ReLU(a *Var) *Var {
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av := a.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := av[i]; v > 0 {
				val.Data[i] = v
			}
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if av[i] > 0 {
						g.Data[i] += out.Grad.Data[i]
					}
				}
			})
		}
	})
	return out
}

// LeakyReLU computes a where a > 0 and alpha*a elsewhere.
func (tp *Tape) LeakyReLU(a *Var, alpha float32) *Var {
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av := a.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := av[i]; v > 0 {
				val.Data[i] = v
			} else {
				val.Data[i] = alpha * v
			}
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if av[i] > 0 {
						g.Data[i] += out.Grad.Data[i]
					} else {
						g.Data[i] += alpha * out.Grad.Data[i]
					}
				}
			})
		}
	})
	return out
}

// Sigmoid computes 1/(1+exp(-a)) elementwise.
func (tp *Tape) Sigmoid(a *Var) *Var {
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av := a.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			val.Data[i] = float32(1 / (1 + math.Exp(-float64(av[i]))))
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s := val.Data[i]
					g.Data[i] += out.Grad.Data[i] * s * (1 - s)
				}
			})
		}
	})
	return out
}

// Tanh computes tanh(a) elementwise.
func (tp *Tape) Tanh(a *Var) *Var {
	val := tp.alloc(a.Value.RowsN, a.Value.ColsN)
	av := a.Value.Data
	parallel.For(len(av), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			val.Data[i] = float32(math.Tanh(float64(av[i])))
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					t := val.Data[i]
					g.Data[i] += out.Grad.Data[i] * (1 - t*t)
				}
			})
		}
	})
	return out
}

// ConcatCols concatenates a (m x n1) and b (m x n2) into (m x n1+n2).
func (tp *Tape) ConcatCols(a, b *Var) *Var {
	if a.Value.RowsN != b.Value.RowsN {
		panic("tensor: ConcatCols row mismatch")
	}
	m, n1, n2 := a.Value.RowsN, a.Value.ColsN, b.Value.ColsN
	val := tp.alloc(m, n1+n2)
	parallel.For(m, elemRowGrain(n1+n2), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(val.Row(i)[:n1], a.Value.Row(i))
			copy(val.Row(i)[n1:], b.Value.Row(i))
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(a, b), func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(m, elemRowGrain(n1), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					row := out.Grad.Row(i)[:n1]
					grow := g.Row(i)
					for j, v := range row {
						grow[j] += v
					}
				}
			})
		}
		if b.requiresGrad {
			g := b.grad()
			parallel.For(m, elemRowGrain(n2), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					row := out.Grad.Row(i)[n1:]
					grow := g.Row(i)
					for j, v := range row {
						grow[j] += v
					}
				}
			})
		}
	})
	return out
}

// GatherRows selects rows of a by idx: out[i] = a[idx[i]].
func (tp *Tape) GatherRows(a *Var, idx []int32) *Var {
	n := a.Value.ColsN
	rows := a.Value.RowsN
	val := tp.alloc(len(idx), n)
	parallel.For(len(idx), elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(val.Row(i), a.Value.Row(int(idx[i])))
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			// Scatter-add dA[idx[i]] += dOut[i]: each source row of a is
			// owned by one worker via the inverse index, and its
			// contributions add in ascending gather position — the serial
			// accumulation order, for every worker count.
			g := a.grad()
			cnt, pos := invertIndex(idx, rows)
			parallel.For(rows, elemRowGrain(n), func(lo, hi int) {
				for r := lo; r < hi; r++ {
					grow := g.Row(r)
					for p := cnt[r]; p < cnt[r+1]; p++ {
						orow := out.Grad.Row(int(pos[p]))
						for j, v := range orow {
							grow[j] += v
						}
					}
				}
			})
		}
	})
	return out
}

// SliceRows returns rows [lo, hi) of a, sharing no storage with a.
func (tp *Tape) SliceRows(a *Var, lo, hi int) *Var {
	if lo < 0 || hi > a.Value.RowsN || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %d rows", lo, hi, a.Value.RowsN))
	}
	n := a.Value.ColsN
	val := tp.alloc(hi-lo, n)
	copy(val.Data, a.Value.Data[lo*n:hi*n])
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			sub := g.Data[lo*n : hi*n]
			og := out.Grad.Data
			parallel.For(len(og), elemGrain, func(elo, ehi int) {
				for i := elo; i < ehi; i++ {
					sub[i] += og[i]
				}
			})
		}
	})
	return out
}

// SliceCols returns columns [lo, hi) of a as a new tensor.
func (tp *Tape) SliceCols(a *Var, lo, hi int) *Var {
	if lo < 0 || hi > a.Value.ColsN || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of range for %d cols", lo, hi, a.Value.ColsN))
	}
	m, w := a.Value.RowsN, hi-lo
	val := tp.alloc(m, w)
	parallel.For(m, elemRowGrain(w), func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			copy(val.Row(i), a.Value.Row(i)[lo:hi])
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(m, elemRowGrain(w), func(rlo, rhi int) {
				for i := rlo; i < rhi; i++ {
					grow := g.Row(i)[lo:hi]
					orow := out.Grad.Row(i)
					for j, v := range orow {
						grow[j] += v
					}
				}
			})
		}
	})
	return out
}

// SegmentSum aggregates per-edge rows into per-destination rows:
// out[dst[e]] += a[e] for every edge e. a is (nEdges x n), out is (nSeg x n).
//
// The forward pass shards the edge range on destination-segment boundaries
// (segmentBounds), so each shard owns a disjoint set of output rows and
// accumulates each destination's edges in the serial order.
func (tp *Tape) SegmentSum(a *Var, dst []int32, nSeg int) *Var {
	if len(dst) != a.Value.RowsN {
		panic("tensor: SegmentSum index length mismatch")
	}
	n := a.Value.ColsN
	val := tp.alloc(nSeg, n)
	bounds := segmentBounds(dst, segEdgeGrain)
	parallel.ForShards(bounds, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			row := val.Row(int(dst[e]))
			arow := a.Value.Row(e)
			for j, v := range arow {
				row[j] += v
			}
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			// dA[e] += dOut[dst[e]]: per-edge rows are disjoint.
			g := a.grad()
			parallel.For(len(dst), elemRowGrain(n), func(lo, hi int) {
				for e := lo; e < hi; e++ {
					grow := g.Row(e)
					orow := out.Grad.Row(int(dst[e]))
					for j, v := range orow {
						grow[j] += v
					}
				}
			})
		}
	})
	return out
}

// SegmentMax computes out[s] = elementwise max over rows of a with dst==s.
// Segments with no edges yield zero rows. The backward pass routes each
// output gradient to the argmax row, as in max-pooling aggregators.
func (tp *Tape) SegmentMax(a *Var, dst []int32, nSeg int) *Var {
	if len(dst) != a.Value.RowsN {
		panic("tensor: SegmentMax index length mismatch")
	}
	n := a.Value.ColsN
	val := tp.alloc(nSeg, n)
	arg := make([]int32, nSeg*n) // edge index of the max, -1 = empty
	for i := range arg {
		arg[i] = -1
	}
	bounds := segmentBounds(dst, segEdgeGrain)
	parallel.ForShards(bounds, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			d := dst[e]
			row := val.Row(int(d))
			arow := a.Value.Row(e)
			base := int(d) * n
			for j, v := range arow {
				if arg[base+j] == -1 || v > row[j] {
					row[j] = v
					arg[base+j] = int32(e)
				}
			}
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			// Each segment's argmax entries point at edges of that segment
			// only, so sharding over segments writes disjoint rows of g.
			g := a.grad()
			parallel.For(nSeg, elemRowGrain(n), func(lo, hi int) {
				for s := lo; s < hi; s++ {
					orow := out.Grad.Row(s)
					base := s * n
					for j, v := range orow {
						if e := arg[base+j]; e >= 0 {
							g.Data[int(e)*n+j] += v
						}
					}
				}
			})
		}
	})
	return out
}

// ScatterRows places row i of a at row idx[i] of a new numRows x cols
// tensor. Indices must be distinct; unassigned rows are zero. It is the
// inverse of GatherRows with disjoint indices, used to merge degree-bucket
// results back into per-destination order.
func (tp *Tape) ScatterRows(a *Var, idx []int32, numRows int) *Var {
	if len(idx) != a.Value.RowsN {
		panic("tensor: ScatterRows index length mismatch")
	}
	n := a.Value.ColsN
	seen := make([]bool, numRows)
	for _, id := range idx {
		if id < 0 || int(id) >= numRows {
			panic(fmt.Sprintf("tensor: ScatterRows index %d out of range [0,%d)", id, numRows))
		}
		if seen[id] {
			panic(fmt.Sprintf("tensor: ScatterRows duplicate index %d", id))
		}
		seen[id] = true
	}
	val := tp.alloc(numRows, n)
	parallel.For(len(idx), elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(val.Row(int(idx[i])), a.Value.Row(i))
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			// Distinct indices make the reads disjoint per row of a.
			g := a.grad()
			parallel.For(len(idx), elemRowGrain(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					grow := g.Row(i)
					orow := out.Grad.Row(int(idx[i]))
					for j, v := range orow {
						grow[j] += v
					}
				}
			})
		}
	})
	return out
}

// RowScale multiplies each row i of a by scale[i]. scale is constant
// (no gradient flows into it); used for mean aggregation (scale = 1/deg).
func (tp *Tape) RowScale(a *Var, scale []float32) *Var {
	if len(scale) != a.Value.RowsN {
		panic("tensor: RowScale length mismatch")
	}
	n := a.Value.ColsN
	val := tp.alloc(a.Value.RowsN, n)
	parallel.For(a.Value.RowsN, elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := scale[i]
			row := val.Row(i)
			arow := a.Value.Row(i)
			for j, v := range arow {
				row[j] = v * s
			}
		}
	})
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(out.Grad.RowsN, elemRowGrain(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s := scale[i]
					grow := g.Row(i)
					orow := out.Grad.Row(i)
					for j, v := range orow {
						grow[j] += v * s
					}
				}
			})
		}
	})
	return out
}

// MulRowsVec multiplies every element of row i of a (m x n) by the scalar
// w[i][0], where w is an m x 1 Var. Gradients flow into both a and w.
// Used for attention-weighted message passing.
func (tp *Tape) MulRowsVec(a, w *Var) *Var {
	if w.Value.ColsN != 1 || w.Value.RowsN != a.Value.RowsN {
		panic("tensor: MulRowsVec requires w of shape rows(a) x 1")
	}
	n := a.Value.ColsN
	val := tp.alloc(a.Value.RowsN, n)
	parallel.For(a.Value.RowsN, elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := w.Value.Data[i]
			row := val.Row(i)
			arow := a.Value.Row(i)
			for j, v := range arow {
				row[j] = v * s
			}
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(a, w), func() {
		if a.requiresGrad {
			g := a.grad()
			parallel.For(out.Grad.RowsN, elemRowGrain(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s := w.Value.Data[i]
					grow := g.Row(i)
					orow := out.Grad.Row(i)
					for j, v := range orow {
						grow[j] += v * s
					}
				}
			})
		}
		if w.requiresGrad {
			// dw[i] is a per-row dot product: rows are disjoint.
			g := w.grad()
			parallel.For(out.Grad.RowsN, elemRowGrain(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					arow := a.Value.Row(i)
					orow := out.Grad.Row(i)
					var s float32
					for j, v := range orow {
						s += v * arow[j]
					}
					g.Data[i] += s
				}
			})
		}
	})
	return out
}

// SegmentSoftmax normalizes the scores (nEdges x 1) with a softmax within
// each destination segment: out[e] = exp(s[e]) / sum_{e': dst[e']==dst[e]} exp(s[e']).
// A numerically stable per-segment max subtraction is applied. Shards cut
// only on segment boundaries, so each shard owns its segments' max, sum,
// and normalization exclusively, in the serial accumulation order.
func (tp *Tape) SegmentSoftmax(scores *Var, dst []int32, nSeg int) *Var {
	if scores.Value.ColsN != 1 || len(dst) != scores.Value.RowsN {
		panic("tensor: SegmentSoftmax requires nEdges x 1 scores")
	}
	nE := len(dst)
	maxes := make([]float32, nSeg)
	seen := make([]bool, nSeg)
	val := tp.alloc(nE, 1)
	sums := make([]float64, nSeg)
	bounds := segmentBounds(dst, segEdgeGrain)
	parallel.ForShards(bounds, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			d := dst[e]
			v := scores.Value.Data[e]
			if !seen[d] || v > maxes[d] {
				maxes[d] = v
				seen[d] = true
			}
		}
		for e := lo; e < hi; e++ {
			d := dst[e]
			ex := math.Exp(float64(scores.Value.Data[e] - maxes[d]))
			val.Data[e] = float32(ex)
			sums[d] += ex
		}
		for e := lo; e < hi; e++ {
			val.Data[e] = float32(float64(val.Data[e]) / sums[dst[e]])
		}
	})
	// The per-segment dot-product buffer is hoisted out of the backward
	// closure (a once-per-op hot path) and zeroed per run instead.
	var dots []float64
	if scores.requiresGrad {
		dots = make([]float64, nSeg)
	}
	var out *Var
	out = tp.record(val, scores.requiresGrad, func() {
		if scores.requiresGrad {
			// d s_e = p_e * (g_e - sum_{e' in seg} p_e' g_e'); the same
			// segment-aligned shards own the per-segment dot products.
			g := scores.grad()
			for i := range dots {
				dots[i] = 0
			}
			parallel.ForShards(bounds, func(lo, hi int) {
				for e := lo; e < hi; e++ {
					dots[dst[e]] += float64(val.Data[e]) * float64(out.Grad.Data[e])
				}
				for e := lo; e < hi; e++ {
					g.Data[e] += val.Data[e] * (out.Grad.Data[e] - float32(dots[dst[e]]))
				}
			})
		}
	})
	return out
}

// Sum reduces a to a 1x1 scalar by summing all elements. Shards sum
// privately in float64 and fold in shard order.
func (tp *Tape) Sum(a *Var) *Var {
	val := tp.alloc(1, 1)
	av := a.Value.Data
	s := parallel.MapReduce(len(av), elemGrain, func(lo, hi int) float64 {
		var p float64
		for i := lo; i < hi; i++ {
			p += float64(av[i])
		}
		return p
	}, func(acc, v float64) float64 { return acc + v })
	val.Data[0] = float32(s)
	var out *Var
	out = tp.record(val, a.requiresGrad, func() {
		if a.requiresGrad {
			g := a.grad()
			gv := out.Grad.Data[0]
			parallel.For(len(g.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					g.Data[i] += gv
				}
			})
		}
	})
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss between logits
// (m x C) and integer labels (length m). It returns a 1x1 loss Var. Rows
// whose label is negative are ignored (masked), matching the convention for
// nodes without labels. Rows are sharded across workers; the per-shard
// loss/count partials fold in shard order.
func (tp *Tape) SoftmaxCrossEntropy(logits *Var, labels []int32) *Var {
	m, c := logits.Value.RowsN, logits.Value.ColsN
	if len(labels) != m {
		panic("tensor: SoftmaxCrossEntropy label length mismatch")
	}
	probs := tp.alloc(m, c)
	grain := elemRowGrain(c)
	type partial struct {
		loss  float64
		count int
	}
	total := parallel.MapReduce(m, grain, func(lo, hi int) partial {
		var p partial
		for i := lo; i < hi; i++ {
			if labels[i] < 0 {
				continue
			}
			p.count++
			row := logits.Value.Row(i)
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			prow := probs.Row(i)
			for j, v := range row {
				e := math.Exp(float64(v - maxv))
				prow[j] = float32(e)
				sum += e
			}
			for j := range prow {
				prow[j] = float32(float64(prow[j]) / sum)
			}
			p.loss += -math.Log(math.Max(float64(prow[labels[i]]), 1e-30))
		}
		return p
	}, func(acc, v partial) partial {
		return partial{loss: acc.loss + v.loss, count: acc.count + v.count}
	})
	count := total.count
	val := tp.alloc(1, 1)
	if count > 0 {
		val.Data[0] = float32(total.loss / float64(count))
	}
	var out *Var
	out = tp.record(val, logits.requiresGrad, func() {
		if logits.requiresGrad && count > 0 {
			g := logits.grad()
			scale := out.Grad.Data[0] / float32(count)
			parallel.For(m, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if labels[i] < 0 {
						continue
					}
					grow := g.Row(i)
					prow := probs.Row(i)
					for j, p := range prow {
						grow[j] += scale * p
					}
					grow[labels[i]] -= scale
				}
			})
		}
	})
	return out
}

// Argmax returns the index of the largest value in each row.
func Argmax(t *Tensor) []int32 {
	out := make([]int32, t.RowsN)
	for i := 0; i < t.RowsN; i++ {
		out[i] = ArgmaxRow(t.Row(i))
	}
	return out
}

// ArgmaxRow returns the index of the first largest value in row.
func ArgmaxRow(row []float32) int32 {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return int32(best)
}
