// Package graph provides the graph substrate for GNN training: a compact
// immutable directed graph stored in CSR (out-edges) and CSC (in-edges)
// form, and the bipartite Block structure that represents one layer of a
// GNN mini-batch (DGL's "message flow graph" block).
//
// Node and edge identifiers are int32; the scaled datasets used in this
// repository stay far below 2^31 nodes and edges. All structures are
// deterministic given the same input edge list.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable directed graph with both out-edge (CSR) and
// in-edge (CSC) adjacency. Edge IDs are the positions of edges in the
// original edge list, so the same edge has one ID visible from both sides.
type Graph struct {
	numNodes int32
	numEdges int64

	// CSR over source node: out-edges.
	outPtr []int64
	outDst []int32
	outEID []int32

	// CSC over destination node: in-edges.
	inPtr []int64
	inSrc []int32
	inEID []int32

	// ewt holds per-edge weights indexed by edge ID (Equation 1's e_uv);
	// nil means every edge has weight 1.
	ewt []float32
}

// FromEdges builds a graph with n nodes from parallel src/dst edge lists.
// Edge i gets ID i. Self-loops and parallel edges are preserved.
func FromEdges(n int32, src, dst []int32) (*Graph, error) {
	return FromEdgesWeighted(n, src, dst, nil)
}

// FromEdgesWeighted builds a graph whose edge i carries weight w[i].
// A nil w means unit weights.
func FromEdgesWeighted(n int32, src, dst []int32, w []float32) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src and dst length mismatch: %d vs %d", len(src), len(dst))
	}
	if w != nil && len(w) != len(src) {
		return nil, fmt.Errorf("graph: weight length %d for %d edges", len(w), len(src))
	}
	m := len(src)
	for i := 0; i < m; i++ {
		if src[i] < 0 || src[i] >= n || dst[i] < 0 || dst[i] >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, src[i], dst[i], n)
		}
	}
	g := &Graph{numNodes: n, numEdges: int64(m)}
	g.outPtr, g.outDst, g.outEID = buildAdj(n, src, dst)
	g.inPtr, g.inSrc, g.inEID = buildAdj(n, dst, src)
	if w != nil {
		g.ewt = append([]float32(nil), w...)
	}
	return g, nil
}

// HasWeights reports whether the graph carries explicit edge weights.
func (g *Graph) HasWeights() bool { return g.ewt != nil }

// EdgeWeight returns the weight of the edge with the given ID (1 for
// unweighted graphs).
func (g *Graph) EdgeWeight(eid int32) float32 {
	if g.ewt == nil {
		return 1
	}
	return g.ewt[eid]
}

// buildAdj builds a CSR adjacency keyed by `key` with neighbor `val` via a
// counting sort; the third returned slice holds original edge indices.
func buildAdj(n int32, key, val []int32) ([]int64, []int32, []int32) {
	m := len(key)
	ptr := make([]int64, n+1)
	for _, k := range key {
		ptr[k+1]++
	}
	for i := int32(0); i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int32, m)
	eid := make([]int32, m)
	cursor := make([]int64, n)
	copy(cursor, ptr[:n])
	for e := 0; e < m; e++ {
		k := key[e]
		p := cursor[k]
		adj[p] = val[e]
		eid[p] = int32(e)
		cursor[k] = p + 1
	}
	return ptr, adj, eid
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int32 { return g.numNodes }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v int32) int {
	return int(g.inPtr[v+1] - g.inPtr[v])
}

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.outPtr[v+1] - g.outPtr[v])
}

// InNeighbors returns the sources of v's in-edges and their edge IDs.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) InNeighbors(v int32) (srcs, eids []int32) {
	lo, hi := g.inPtr[v], g.inPtr[v+1]
	return g.inSrc[lo:hi], g.inEID[lo:hi]
}

// Edges re-materializes the original (src, dst) edge lists in edge-ID order.
func (g *Graph) Edges() (src, dst []int32) {
	src = make([]int32, g.numEdges)
	dst = make([]int32, g.numEdges)
	for v := int32(0); v < g.numNodes; v++ {
		lo, hi := g.inPtr[v], g.inPtr[v+1]
		for p := lo; p < hi; p++ {
			e := g.inEID[p]
			src[e] = g.inSrc[p]
			dst[e] = v
		}
	}
	return src, dst
}

// InDegreeHistogram buckets all nodes by in-degree, with degrees >= maxBucket
// accumulated into the last bucket — the "in-degree bucketing" scheme used
// by DGL-style frameworks whose last-bucket explosion §4.4.2 analyzes.
// The returned slice has maxBucket+1 entries: [deg0, deg1, ..., deg>=max].
func (g *Graph) InDegreeHistogram(maxBucket int) []int {
	h := make([]int, maxBucket+1)
	for v := int32(0); v < g.numNodes; v++ {
		d := g.InDegree(v)
		if d >= maxBucket {
			h[maxBucket]++
		} else {
			h[d]++
		}
	}
	return h
}

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int {
	best := 0
	for v := int32(0); v < g.numNodes; v++ {
		if d := g.InDegree(v); d > best {
			best = d
		}
	}
	return best
}

// Bytes returns the memory footprint of the graph's adjacency structures —
// the host-side cost of keeping the raw graph resident (Betty's
// heterogeneous-memory design keeps the graph and features in host memory
// and ships only micro-batch slices to the device).
func (g *Graph) Bytes() int64 {
	b := int64(len(g.outPtr)+len(g.inPtr)) * 8
	b += int64(len(g.outDst)+len(g.outEID)+len(g.inSrc)+len(g.inEID)) * 4
	b += int64(len(g.ewt)) * 4
	return b
}

// Validate checks structural invariants; tests call it after construction.
func (g *Graph) Validate() error {
	if int64(len(g.outDst)) != g.numEdges || int64(len(g.inSrc)) != g.numEdges {
		return fmt.Errorf("graph: adjacency length mismatch")
	}
	if g.outPtr[g.numNodes] != g.numEdges || g.inPtr[g.numNodes] != g.numEdges {
		return fmt.Errorf("graph: pointer array does not cover all edges")
	}
	if !sort.SliceIsSorted(g.outPtr, func(i, j int) bool { return g.outPtr[i] < g.outPtr[j] }) &&
		!isNonDecreasing(g.outPtr) {
		return fmt.Errorf("graph: outPtr not monotone")
	}
	if !isNonDecreasing(g.inPtr) {
		return fmt.Errorf("graph: inPtr not monotone")
	}
	return nil
}

func isNonDecreasing(s []int64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}
