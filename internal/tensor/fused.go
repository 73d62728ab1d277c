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
// composition, so the two agree to the byte at any worker count.

// CSR describes one graph block's edges in the layout FusedCSRAgg consumes:
// parallel per-edge endpoint slices sorted by destination, plus where to
// get the inverse of Src that the backward scatter-add iterates. Callers
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
	// Inverse supplies the inverse of Src. Only the backward pass reads it,
	// so a forward-only aggregation (serving, evaluation, a layer over the
	// input features) never builds it. Required when h needs a gradient.
	Inverse SrcInverter
	// NSrc and NDst are the source and destination node counts.
	NSrc, NDst int
}

// SrcInverter is the inverse of a CSR's Src (see invertIndex): positions
// pos[cnt[r]:cnt[r+1]] list, ascending, the edges with Src == r. The
// backward pass owns each source row through it, and its column lanes read
// pos's edges unchecked, so FusedCSRAgg checks both lengths before use.
// graph.Block implements it, building the inverse on first call and
// keeping it.
type SrcInverter interface {
	SrcInverse() (cnt, pos []int32)
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
// order into a single accumulator, starting from +0, and is scaled once
// before it is stored — the exact value sequence of the chain, without
// materializing the per-edge messages or the pre-scale sum. A destination
// with no edges gets a +0 row, which is what scaling its zero sum by a
// finite, non-negative InvDeg gives. With column lanes the accumulator is
// a block of a destination's row held in registers across its segment
// (aggRow). The backward pass owns each source row via the precomputed
// inverse and accumulates dh[r] += (dOut[Dst[p]] * InvDeg[Dst[p]]) * Wt[p]
// in ascending p — the same parenthesization the RowScale →
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
	val := tp.allocDirty(c.NDst, n) // every row is stored or cleared below
	if len(c.Dst) == 0 {
		clear(val.Data)
	}
	bounds := segmentBounds(c.Dst, segEdgeGrain)
	parallel.ForShards(bounds, func(lo, hi int) {
		// The shard owns its destinations' rows and the edgeless rows up to
		// the next shard's first destination (from row 0 for the first
		// shard, to the last row for the last one), and writes each once.
		next := 0
		if lo > 0 {
			next = int(c.Dst[lo])
		}
		for e0 := lo; e0 < hi; {
			d := c.Dst[e0]
			e1 := e0
			for ; e1 < hi && c.Dst[e1] == d; e1++ {
				if uint(c.Src[e1]) >= uint(c.NSrc) {
					panic(fmt.Sprintf("tensor: FusedCSRAgg edge %d has source %d of %d", e1, c.Src[e1], c.NSrc))
				}
			}
			if e1 < hi && c.Dst[e1] < d {
				panic("tensor: FusedCSRAgg needs destination-sorted edges")
			}
			clear(val.Data[next*n : int(d)*n])
			var wt, post []float32
			if c.Wt != nil {
				wt = c.Wt[e0:e1]
			}
			if c.InvDeg != nil {
				post = c.InvDeg[d : d+1]
			}
			aggRow(val.Row(int(d)), h.Value.Data, c.Src[e0:e1], wt, post)
			next = int(d) + 1
			e0 = e1
		}
		end := c.NDst
		if hi < len(c.Dst) {
			end = int(c.Dst[hi])
		}
		clear(val.Data[next*n : end*n])
	})
	var out *Var
	out = tp.record(val, h.requiresGrad, func() {
		if !h.requiresGrad {
			return
		}
		if c.Inverse == nil {
			panic("tensor: FusedCSRAgg needs the source inverse for its backward")
		}
		cnt, pos := c.Inverse.SrcInverse()
		if len(cnt) != c.NSrc+1 || len(pos) != len(c.Src) {
			panic("tensor: FusedCSRAgg inverse length mismatch")
		}
		g := h.grad()
		parallel.For(c.NSrc, elemRowGrain(n), func(lo, hi int) {
			scatterRows(g.Data, out.Grad.Data, n, lo, hi, cnt, pos, c.Dst, c.InvDeg, c.Wt)
		})
	})
	return out
}

// aggRow sets o, one destination's row, to
//
//	o[j] = (+0 + h[src[0]][j]·wt[0] + … + h[src[last]][j]·wt[last]) · post[0]
//
// for h read as rows of len(o), added in order and rounded at each step; a
// nil wt or post drops that factor. With useLanes, aggLanes runs the first
// len(o) &^ 7 columns with the row's blocks held in registers across the
// segment, and the Go loop the rest: each column is its own sum, so
// splitting the columns keeps every element's order.
func aggRow(o, h []float32, src []int32, wt, post []float32) {
	n := len(o)
	j := 0
	if useLanes {
		j = n &^ 7
		aggLanes(o[:j], h, src, wt, post, n)
	}
	if j == n {
		return
	}
	tail := o[j:]
	for t, s := range src {
		hrow := h[int(s)*n+j : int(s)*n+n]
		hrow = hrow[:len(tail)]
		switch {
		case t == 0 && wt != nil: // +0 + x is x + 0: the accumulator starts at +0
			w := wt[t]
			for q, v := range hrow {
				tail[q] = v*w + 0
			}
		case t == 0:
			for q, v := range hrow {
				tail[q] = v + 0
			}
		case wt != nil:
			w := wt[t]
			for q, v := range hrow {
				tail[q] += v * w
			}
		default:
			for q, v := range hrow {
				tail[q] += v
			}
		}
	}
	if post != nil {
		s := post[0]
		for q := range tail {
			tail[q] *= s
		}
	}
}

// scatterRows adds to each row r in [lo, hi) of dh, n wide, the terms
// (g[d][j]·scale[d])·wt[e] for e = pos[p], p in [cnt[r], cnt[r+1]) in
// order, where d = rows[e] (d = e when rows is nil) and g has rows n wide;
// a nil scale or wt drops that factor. Every output element adds its terms
// one at a time into its own value. With useLanes, scatterLanes runs the
// first n &^ 7 columns of a row and the Go loop the rest, as in aggRow.
func scatterRows(dh, g []float32, n, lo, hi int, cnt, pos, rows []int32, scale, wt []float32) {
	j := 0
	if useLanes {
		j = n &^ 7
	}
	for r := lo; r < hi; r++ {
		ps := pos[cnt[r]:cnt[r+1]]
		if len(ps) == 0 {
			continue
		}
		o := dh[r*n : r*n+n]
		if j > 0 {
			scatterLanes(o[:j], g, ps, rows, scale, wt, n)
		}
		if j == n {
			continue
		}
		tail := o[j:]
		for _, p := range ps {
			e := int(p)
			d := e
			if rows != nil {
				d = int(rows[e])
			}
			grow := g[d*n+j : d*n+n]
			switch {
			case scale != nil && wt != nil:
				s, w := scale[d], wt[e]
				for q, v := range grow {
					tail[q] += (v * s) * w
				}
			case wt != nil:
				w := wt[e]
				for q, v := range grow {
					tail[q] += v * w
				}
			case scale != nil:
				s := scale[d]
				for q, v := range grow {
					tail[q] += v * s
				}
			default:
				for q, v := range grow {
					tail[q] += v
				}
			}
		}
	}
}

// LinearBiasReLU computes ReLU([x1 ‖ x2] @ W + b) — or [x1 ‖ x2] @ W + b
// when relu is false — as one tape op. The multiplier comes in one column
// block (x2 nil) or two: SAGE passes its self rows and its aggregate side
// by side without building their concatenation, and gemm walks k over x1
// and then over x2, the concatenation's order. It fuses the ConcatCols →
// MatMul → AddBias → ReLU chain bitwise: the matmul stores its sums from +0
// into the output buffer (same tiled kernel, same per-element accumulation
// order), and each gemm shard then adds the bias to its own rows and clamps
// negatives while they are still in cache (its epilogue), producing exactly
// the values the separate ops would, without materializing the
// intermediate tensors.
//
// Backward reproduces the chain's gradient values exactly: the ReLU mask is
// taken from the post-activation output (out > 0 ⇔ pre-activation > 0, since
// ReLU only zeroes non-positives) in the same pass over the gradient that
// sums the bias gradient's per-shard partial columns, which fold in
// ascending shard order with the same grain as AddBias, and the
// weight/input gradients go through the same transposed kernels MatMul's
// backward uses: one matMulTBInto that writes both input gradients, and
// one matMulTAInto whose first cols(x1) rows read x1 and the rest x2.
func (tp *Tape) LinearBiasReLU(x1, x2, w, b *Var, relu bool) *Var {
	k := x1.Value.ColsN
	if x2 != nil {
		k += x2.Value.ColsN // colBlocks checks the row counts
	}
	if k != w.Value.RowsN {
		panic(fmt.Sprintf("tensor: LinearBiasReLU shape mismatch %dx%d @ %dx%d",
			x1.Value.RowsN, k, w.Value.RowsN, w.Value.ColsN))
	}
	if b.Value.RowsN != 1 || b.Value.ColsN != w.Value.ColsN {
		panic("tensor: LinearBiasReLU requires a 1 x cols bias")
	}
	m, n := x1.Value.RowsN, w.Value.ColsN
	var v2 *Tensor
	needsGrad := anyGrad(x1, w, b)
	if x2 != nil {
		v2, needsGrad = x2.Value, needsGrad || x2.requiresGrad
	}
	val := tp.allocDirty(m, n) // gemm stores every element without reading it
	gemmInto(val, colBlocks(x1.Value, v2), w.Value.Data, b.Value.Data, relu, false)
	var out *Var
	out = tp.record(val, needsGrad, func() {
		// dPre is the gradient at the pre-activation (post-bias) value. With
		// relu it is the masked output gradient in a pooled scratch tensor,
		// which the mask pass writes in full; without, the output gradient
		// itself serves unmasked.
		dPre, mask := out.Grad, (*Tensor)(nil)
		if relu {
			dPre, mask = tp.allocDirty(m, n), val
		}
		var gb *Tensor
		if b.requiresGrad {
			gb = b.grad()
		}
		addBiasGrad(tp, gb, out.Grad, mask, dPre)
		var g1, g2 *Tensor
		if x1.requiresGrad {
			g1 = x1.grad()
		}
		if x2 != nil && x2.requiresGrad {
			g2 = x2.grad()
		}
		if g1 != nil || g2 != nil {
			matMulTBInto(g1, g2, dPre, w.Value, true)
		}
		if w.requiresGrad {
			matMulTAInto(w.grad(), x1.Value, v2, dPre, true)
		}
	})
	return out
}

// addBiasGrad accumulates the column sums of dOut into g (the bias
// gradient): each shard sums its rows into a private partial, and partials
// fold in ascending shard order. With mask, it first sets each value of
// dOut to +0 where mask is not greater than 0 (the ReLU backward) and
// stores it to dPre, in the same pass; a nil g only masks. The shard
// structure depends only on the problem, so the reduction tree — shared
// verbatim with AddBias's backward — is fixed for every worker count.
func addBiasGrad(tp *Tape, g, dOut, mask, dPre *Tensor) {
	if g == nil && mask == nil {
		return
	}
	m, n := dOut.RowsN, dOut.ColsN
	grain := elemRowGrain(n)
	nShards := parallel.NumShards(m, grain)
	var partials []float32
	if g != nil && nShards > 1 {
		partials = tp.allocF32(nShards * n)
	}
	pass := func(lo, hi int) {
		var d, v, p []float32
		if mask != nil {
			d, v = dPre.Data[lo*n:hi*n], mask.Data[lo*n:hi*n]
		}
		switch {
		case partials != nil:
			p = partials[(lo/grain)*n : (lo/grain+1)*n]
		case g != nil:
			p = g.Data
		}
		maskSum(d, dOut.Data[lo*n:hi*n], v, p, n)
	}
	if nShards <= 1 {
		pass(0, m)
		return
	}
	parallel.For(m, grain, pass)
	if partials == nil {
		return
	}
	for s := 0; s < nShards; s++ {
		p := partials[s*n : (s+1)*n]
		for j, v := range p {
			g.Data[j] += v
		}
	}
}

// maskSum walks the n-wide rows of x in order. With v, each value is set
// to +0 where v is not greater than 0 and stored to d; with p, the (masked)
// row is added into p. With useLanes, maskSumLanes runs the first n &^ 7
// columns of every row and the Go loop the rest.
func maskSum(d, x, v, p []float32, n int) {
	j := 0
	if useLanes {
		j = n &^ 7
		maskSumLanes(d, x, v, p, n)
	}
	if j == n {
		return
	}
	for i := 0; i < len(x); i += n {
		row := x[i+j : i+n]
		if v != nil {
			vrow, drow := v[i+j:i+n], d[i+j:i+n]
			for q, y := range row {
				if vrow[q] > 0 {
					drow[q] = y
				} else {
					drow[q] = 0
				}
			}
			row = drow
		}
		if p != nil {
			for q, y := range row {
				p[j+q] += y
			}
		}
	}
}
