// Package partition implements K-way graph partitioning: a METIS-style
// multilevel min-edge-cut partitioner built from scratch, plus
// partition-quality metrics (edge cut, balance). Betty's REG partitioning
// (package reg) feeds its redundancy-embedded graph to the multilevel
// partitioner from here; the range and random baselines the paper
// evaluates against are reg.RangeBatch and reg.RandomBatch.
package partition

import (
	"fmt"
	"sort"
)

// WeightedGraph is an undirected graph with edge and node weights, the
// input format of the partitioners. The adjacency is symmetric: every edge
// appears from both endpoints with the same weight.
type WeightedGraph struct {
	N   int
	Ptr []int64   // len N+1
	Adj []int32   // neighbor ids
	EWt []float32 // edge weights, parallel to Adj
	NWt []float32 // node weights, len N
}

// NewWeightedGraph builds an undirected weighted graph from directed edge
// triplets (u[i], v[i], w[i]). Both directions are inserted and duplicate
// (unordered) pairs have their weights summed; self loops are dropped.
// nodeWt may be nil, meaning unit node weights.
func NewWeightedGraph(n int, u, v []int32, w []float32, nodeWt []float32) (*WeightedGraph, error) {
	if len(u) != len(v) || len(u) != len(w) {
		return nil, fmt.Errorf("partition: edge array length mismatch")
	}
	for i := range u {
		if u[i] < 0 || int(u[i]) >= n || v[i] < 0 || int(v[i]) >= n {
			return nil, fmt.Errorf("partition: edge %d (%d,%d) out of range", i, u[i], v[i])
		}
	}
	// Accumulate unordered pair weights deterministically: normalize each
	// pair to (low, high), sort, and merge runs. (A map would randomize
	// adjacency order and with it every downstream partitioning decision.)
	type pair struct {
		a, b int32
		w    float32
	}
	pairs := make([]pair, 0, len(u))
	for i := range u {
		a, b := u[i], v[i]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, pair{a, b, w[i]})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	merged := pairs[:0]
	for _, p := range pairs {
		if n := len(merged); n > 0 && merged[n-1].a == p.a && merged[n-1].b == p.b {
			merged[n-1].w += p.w
		} else {
			merged = append(merged, p)
		}
	}
	deg := make([]int64, n+1)
	for _, p := range merged {
		deg[p.a+1]++
		deg[p.b+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g := &WeightedGraph{
		N:   n,
		Ptr: deg,
		Adj: make([]int32, len(merged)*2),
		EWt: make([]float32, len(merged)*2),
		NWt: make([]float32, n),
	}
	cursor := make([]int64, n)
	copy(cursor, g.Ptr[:n])
	for _, pr := range merged {
		p := cursor[pr.a]
		g.Adj[p], g.EWt[p] = pr.b, pr.w
		cursor[pr.a] = p + 1
		q := cursor[pr.b]
		g.Adj[q], g.EWt[q] = pr.a, pr.w
		cursor[pr.b] = q + 1
	}
	if nodeWt != nil {
		if len(nodeWt) != n {
			return nil, fmt.Errorf("partition: node weight length %d, want %d", len(nodeWt), n)
		}
		copy(g.NWt, nodeWt)
	} else {
		for i := range g.NWt {
			g.NWt[i] = 1
		}
	}
	return g, nil
}

// Neighbors returns node v's adjacency and edge-weight slices (aliases).
func (g *WeightedGraph) Neighbors(v int32) ([]int32, []float32) {
	lo, hi := g.Ptr[v], g.Ptr[v+1]
	return g.Adj[lo:hi], g.EWt[lo:hi]
}

// TotalNodeWeight sums all node weights.
func (g *WeightedGraph) TotalNodeWeight() float64 {
	var s float64
	for _, w := range g.NWt {
		s += float64(w)
	}
	return s
}

// validateK rejects degenerate part counts.
func validateK(g *WeightedGraph, k int) error {
	if k <= 0 {
		return fmt.Errorf("partition: k must be positive, got %d", k)
	}
	if g.N > 0 && k > g.N {
		return fmt.Errorf("partition: k=%d exceeds %d nodes", k, g.N)
	}
	return nil
}

// EdgeCut returns the total weight of edges whose endpoints are in
// different parts (each undirected edge counted once).
func EdgeCut(g *WeightedGraph, parts []int32) float64 {
	var cut float64
	for v := int32(0); int(v) < g.N; v++ {
		adj, ewt := g.Neighbors(v)
		for i, u := range adj {
			if u > v && parts[u] != parts[v] {
				cut += float64(ewt[i])
			}
		}
	}
	return cut
}

// Boundary counts the nodes that have at least one neighbor assigned to a
// different part. These are the vertices whose state must be exchanged
// between parts in a split-parallel execution — the halo set — so alongside
// EdgeCut it predicts the inter-device traffic a partition induces.
func Boundary(g *WeightedGraph, parts []int32) int {
	count := 0
	for v := int32(0); int(v) < g.N; v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if parts[u] != parts[v] {
				count++
				break
			}
		}
	}
	return count
}

// PartWeights sums node weights per part.
func PartWeights(g *WeightedGraph, parts []int32, k int) []float64 {
	w := make([]float64, k)
	for v := 0; v < g.N; v++ {
		w[parts[v]] += float64(g.NWt[v])
	}
	return w
}

// Balance returns max part weight divided by the ideal (total/k); 1.0 is
// perfectly balanced.
func Balance(g *WeightedGraph, parts []int32, k int) float64 {
	w := PartWeights(g, parts, k)
	total := 0.0
	maxw := 0.0
	for _, x := range w {
		total += x
		if x > maxw {
			maxw = x
		}
	}
	//bettyvet:ok floateq division guard; weights are non-negative so the sum is exactly zero only when all are
	if total == 0 {
		return 1
	}
	return maxw / (total / float64(k))
}

// Sizes counts nodes per part.
func Sizes(parts []int32, k int) []int {
	s := make([]int, k)
	for _, p := range parts {
		s[p]++
	}
	return s
}
