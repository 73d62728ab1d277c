package tensor

import (
	"fmt"

	"betty/internal/parallel"
)

// This file is the fused half of the kernel tier (DESIGN.md §13): single-pass
// tape ops that each stand in for a chain of primitive ops with
// bitwise-identical values. The layer forwards in package nn call them
// directly; the primitive chains survive only as test references. Fusion is
// an execution detail, never an approximation — every kernel accumulates
// each output element in exactly the serial order of the primitive
// composition, so the two agree to the byte at any BETTY_WORKERS count.

// CSR describes one graph block's edges in the layout FusedCSRAgg consumes:
// parallel per-edge endpoint slices sorted by destination, plus the
// precomputed inverse of Src that the backward scatter-add iterates. Callers
// (internal/nn) build it from graph.Block's memoized views, so constructing a
// CSR on the hot path allocates nothing.
type CSR struct {
	// Src and Dst are per-edge local endpoints; Dst must be non-decreasing
	// (the segment kernels' sharding contract).
	Src, Dst []int32
	// Wt holds optional per-edge weights (Equation 1's e_uv); nil = unit.
	Wt []float32
	// InvDeg holds an optional per-destination post-scale (1/deg for mean
	// aggregation, 1/√d̂ for GCN destination normalization); nil = no scale.
	InvDeg []float32
	// InvCnt/InvPos are the inverse of Src (see invertIndex): positions
	// InvPos[InvCnt[r]:InvCnt[r+1]] list, ascending, the edges with
	// Src == r. Required — the backward pass owns each source row through
	// this inverse.
	InvCnt, InvPos []int32
	// NSrc and NDst are the source and destination node counts.
	NSrc, NDst int
}

// FusedCSRAgg aggregates source rows into destination rows in one pass:
//
//	out[d] = (Σ_{p: Dst[p]==d, ascending p} Wt[p] * h[Src[p]]) * InvDeg[d]
//
// with the Wt factor and the InvDeg scale each optional. It fuses the
// primitive chains
//
//	SegmentSum(GatherRows(h, src), dst)                 (sum)
//	RowScale(SegmentSum(GatherRows(h, src), dst), inv)  (mean / normalized)
//	SegmentSum(MulRowsVec(GatherRows(h, src), w), dst)  (weighted sum)
//
// bitwise: each destination element accumulates its edges in ascending edge
// order into a single accumulator and is scaled once afterwards — the exact
// value sequence of the chain, without materializing the per-edge messages
// or the pre-scale sum. The backward pass owns each source row via the
// precomputed inverse and accumulates dh[r] += (dOut[Dst[p]] * InvDeg[Dst[p]])
// * Wt[p] in ascending p — the same parenthesization the RowScale →
// SegmentSum/MulRowsVec → GatherRows backward composition produces — so
// gradients are bitwise-identical too, at any worker count.
func (tp *Tape) FusedCSRAgg(h *Var, c CSR) *Var {
	if h.Value.RowsN != c.NSrc {
		panic(fmt.Sprintf("tensor: FusedCSRAgg got %d feature rows for %d sources", h.Value.RowsN, c.NSrc))
	}
	if len(c.Src) != len(c.Dst) {
		panic("tensor: FusedCSRAgg src/dst length mismatch")
	}
	if c.Wt != nil && len(c.Wt) != len(c.Src) {
		panic("tensor: FusedCSRAgg weight length mismatch")
	}
	if c.InvDeg != nil && len(c.InvDeg) != c.NDst {
		panic("tensor: FusedCSRAgg InvDeg length mismatch")
	}
	n := h.Value.ColsN
	val := tp.alloc(c.NDst, n)
	bounds := segmentBounds(c.Dst, segEdgeGrain)
	parallel.ForShards(bounds, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			row := val.Row(int(c.Dst[e]))
			hrow := h.Value.Row(int(c.Src[e]))
			if c.Wt != nil {
				w := c.Wt[e]
				for j, v := range hrow {
					row[j] += v * w
				}
			} else {
				for j, v := range hrow {
					row[j] += v
				}
			}
		}
		if c.InvDeg != nil {
			// The shard owns complete destination segments, so scaling its
			// destinations in place races with nobody. Destinations with no
			// edges keep their zero rows — identical to scaling them, since
			// the InvDeg factors are non-negative.
			for d := int(c.Dst[lo]); d <= int(c.Dst[hi-1]); d++ {
				s := c.InvDeg[d]
				row := val.Row(d)
				for j := range row {
					row[j] *= s
				}
			}
		}
	})
	var out *Var
	out = tp.record(val, h.requiresGrad, func() {
		if !h.requiresGrad {
			return
		}
		g := h.grad()
		parallel.For(c.NSrc, elemRowGrain(n), func(lo, hi int) {
			for r := lo; r < hi; r++ {
				grow := g.Row(r)
				for p := c.InvCnt[r]; p < c.InvCnt[r+1]; p++ {
					e := c.InvPos[p]
					d := int(c.Dst[e])
					orow := out.Grad.Row(d)
					switch {
					case c.Wt != nil && c.InvDeg != nil:
						s, w := c.InvDeg[d], c.Wt[e]
						for j, v := range orow {
							grow[j] += (v * s) * w
						}
					case c.Wt != nil:
						w := c.Wt[e]
						for j, v := range orow {
							grow[j] += v * w
						}
					case c.InvDeg != nil:
						s := c.InvDeg[d]
						for j, v := range orow {
							grow[j] += v * s
						}
					default:
						for j, v := range orow {
							grow[j] += v
						}
					}
				}
			}
		})
	})
	return out
}

// LinearBiasReLU computes ReLU(x @ W + b) — or x @ W + b when relu is false
// — as one tape op. It fuses the MatMul → AddBias → ReLU chain bitwise: the
// matmul lands in the output buffer first (same tiled kernel, same
// per-element accumulation order), then one pass over each output row adds
// the bias and clamps negatives, producing exactly the values the three
// separate ops would, without materializing the two intermediate tensors.
//
// Backward reproduces the chain's gradient values exactly: the ReLU mask is
// taken from the post-activation output (out > 0 ⇔ pre-activation > 0, since
// ReLU only zeroes non-positives), the bias gradient folds per-shard partial
// column sums in ascending shard order with the same grain as AddBias, and
// the weight/input gradients go through the same transposed kernels MatMul's
// backward uses.
func (tp *Tape) LinearBiasReLU(x, w, b *Var, relu bool) *Var {
	if x.Value.ColsN != w.Value.RowsN {
		panic(fmt.Sprintf("tensor: LinearBiasReLU shape mismatch %dx%d @ %dx%d",
			x.Value.RowsN, x.Value.ColsN, w.Value.RowsN, w.Value.ColsN))
	}
	if b.Value.RowsN != 1 || b.Value.ColsN != w.Value.ColsN {
		panic("tensor: LinearBiasReLU requires a 1 x cols bias")
	}
	m, n := x.Value.RowsN, w.Value.ColsN
	val := tp.alloc(m, n)
	matMulInto(val, x.Value, w.Value, false)
	bias := b.Value.Data
	parallel.For(m, elemRowGrain(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := val.Row(i)
			if relu {
				for j := range row {
					v := row[j] + bias[j]
					if v > 0 {
						row[j] = v
					} else {
						row[j] = 0
					}
				}
			} else {
				for j := range row {
					row[j] += bias[j]
				}
			}
		}
	})
	var out *Var
	out = tp.record(val, anyGrad(x, w, b), func() {
		// dPre is the gradient at the pre-activation (post-bias) value. With
		// relu it is the masked output gradient in a pooled scratch tensor;
		// without, the output gradient itself serves unmasked.
		dPre := out.Grad
		if relu {
			dPre = tp.alloc(m, n)
			parallel.For(len(val.Data), elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if val.Data[i] > 0 {
						dPre.Data[i] = out.Grad.Data[i]
					}
				}
			})
		}
		if b.requiresGrad {
			addBiasGrad(tp, b.grad(), dPre)
		}
		if x.requiresGrad {
			matMulTBInto(x.grad(), dPre, w.Value, true)
		}
		if w.requiresGrad {
			matMulTAInto(w.grad(), x.Value, dPre, true)
		}
	})
	return out
}

// addBiasGrad accumulates the column sums of dOut into g (the bias
// gradient): each shard sums its rows into a private partial, and partials
// fold in ascending shard order. The shard structure depends only on the
// problem, so the reduction tree — shared verbatim with AddBias's backward —
// is fixed for every worker count.
func addBiasGrad(tp *Tape, g, dOut *Tensor) {
	m, n := dOut.RowsN, dOut.ColsN
	grain := elemRowGrain(n)
	nShards := parallel.NumShards(m, grain)
	if nShards <= 1 {
		for i := 0; i < m; i++ {
			row := dOut.Row(i)
			for j, v := range row {
				g.Data[j] += v
			}
		}
		return
	}
	partials := tp.allocF32(nShards * n)
	parallel.For(m, grain, func(lo, hi int) {
		p := partials[(lo/grain)*n : (lo/grain+1)*n]
		for i := lo; i < hi; i++ {
			row := dOut.Row(i)
			for j, v := range row {
				p[j] += v
			}
		}
	})
	for s := 0; s < nShards; s++ {
		p := partials[s*n : (s+1)*n]
		for j, v := range p {
			g.Data[j] += v
		}
	}
}
