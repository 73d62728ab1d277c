package reg

import (
	"fmt"
	"slices"

	"betty/internal/graph"
	"betty/internal/parallel"
	"betty/internal/partition"
)

// wedge is one weighted REG edge: an unordered destination pair (a < b)
// and its Gram weight.
type wedge struct {
	a, b int32
	w    float32
}

// rowShardGrain is the number of destination rows each Gram shard owns: a
// fixed constant, never derived from the worker count (see package
// parallel). Rows are computed independently of one another, so the
// sharding cannot reach a single output bit; the constant only bounds the
// per-shard scratch and balances the load.
const rowShardGrain = 512

// BuildREGFast constructs the redundancy-embedded graph of a last-layer
// block (Algorithm 1 lines 1-7): one node per block destination, edge
// weights counting shared in-neighbors. It never materializes the sparse
// adjacency or its Gram product — the REG-construction optimization the
// paper lists as future work; the tests hold it bitwise equal to the
// Algorithm-1-literal SpGEMM construction and to a brute-force count.
//
// It is a row-wise (Gustavson) evaluation of the strict upper triangle of
// C = AᵀA: c_ab = Σ_k a_ka·a_kb only receives contributions from sources k
// feeding both a and b, so row a walks its sources in ascending order and,
// for each, the source's destinations above a, summing m_ka·m_kb into a
// dense accumulator (parallel edges give a source multiplicity m_ki toward
// destination i). Rows are sharded across workers; each shard emits its
// rows' edges already sorted by (a, b), so concatenating the shards is the
// whole merge. Non-output columns never enter, so the restriction and
// self-loop removal of Algorithm 1 lines 5-7 are free.
//
// Every weight is summed in ascending source order inside one row, which no
// worker count can change: the result is bitwise-identical for every
// parallel.SetWorkers value.
func BuildREGFast(last *graph.Block) (*partition.WeightedGraph, error) {
	if err := last.Validate(); err != nil {
		return nil, fmt.Errorf("reg: invalid block: %w", err)
	}
	nDst, nSrc := last.NumDst, last.NumSrc

	// Bucket the block's edges by source: srcPtr/srcDst is a CSR over the
	// homogeneous source space listing each source's destinations ascending
	// (parallel edges adjacent).
	srcPtr := make([]int32, nSrc+1)
	for _, s := range last.SrcLocal {
		srcPtr[s+1]++
	}
	for i := 0; i < nSrc; i++ {
		srcPtr[i+1] += srcPtr[i]
	}
	srcDst := make([]int32, len(last.SrcLocal))
	cursor := make([]int32, nSrc)
	copy(cursor, srcPtr[:nSrc])
	for d := 0; d < nDst; d++ {
		for p := last.Ptr[d]; p < last.Ptr[d+1]; p++ {
			s := last.SrcLocal[p]
			srcDst[cursor[s]] = int32(d)
			cursor[s]++
		}
	}
	// Transpose back: rowSrc lists each destination's sources ascending
	// (parallel edges adjacent) under the block's own row pointers.
	rowSrc := make([]int32, len(srcDst))
	next := make([]int64, nDst)
	copy(next, last.Ptr[:nDst])
	for s := 0; s < nSrc; s++ {
		for _, d := range srcDst[srcPtr[s]:srcPtr[s+1]] {
			rowSrc[next[d]] = int32(s)
			next[d]++
		}
	}

	shards := make([][]wedge, parallel.NumShards(nDst, rowShardGrain))
	parallel.For(nDst, rowShardGrain, func(lo, hi int) {
		shards[lo/rowShardGrain] = gramRows(last.Ptr, rowSrc, srcPtr, srcDst, lo, hi)
	})
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	u := make([]int32, 0, total)
	v := make([]int32, 0, total)
	w := make([]float32, 0, total)
	for _, sh := range shards {
		for _, e := range sh {
			u = append(u, e.a)
			v = append(v, e.b)
			w = append(w, e.w)
		}
	}
	return partition.NewWeightedGraph(nDst, u, v, w, nil)
}

// gramRows returns the REG edges (a, b > a) of rows [lo, hi), sorted by
// (a, b). Row a's sources arrive ascending from rowSrc, so every c_ab is
// accumulated in source order; the Gram contribution of source k to the
// pair is m_ka·m_kb, matching AᵀA exactly.
func gramRows(rowPtr []int64, rowSrc, srcPtr, srcDst []int32, lo, hi int) []wedge {
	var out []wedge
	acc := make([]float32, len(rowPtr)-1) // dense row accumulator over b
	touched := make([]int32, 0, 64)       // b's with a nonzero acc
	for a := lo; a < hi; a++ {
		for p, end := rowPtr[a], rowPtr[a+1]; p < end; {
			k, ma := rowSrc[p], float32(0)
			for ; p < end && rowSrc[p] == k; p++ {
				ma++
			}
			// k's destinations above a, walked from the top of its list.
			for q, first := srcPtr[k+1]-1, srcPtr[k]; q >= first && int(srcDst[q]) > a; {
				b, mb := srcDst[q], float32(0)
				for ; q >= first && srcDst[q] == b; q-- {
					mb++
				}
				//bettyvet:ok floateq acc holds sums of positive multiplicity products, so zero marks first touch exactly
				if acc[b] == 0 {
					touched = append(touched, b)
				}
				acc[b] += ma * mb
			}
		}
		slices.Sort(touched)
		for _, b := range touched {
			out = append(out, wedge{int32(a), b, acc[b]})
			acc[b] = 0
		}
		touched = touched[:0]
	}
	return out
}
