package partition

import (
	"fmt"

	"betty/internal/rng"
)

// Metis is a multilevel K-way min-edge-cut partitioner in the style of
// METIS (Karypis & Kumar): the graph is coarsened with heavy-edge matching,
// an initial partition is computed on the coarsest graph with greedy graph
// growing, and the partition is projected back through the levels with
// boundary Kernighan-Lin/Fiduccia-Mattheyses refinement at each step.
//
// It minimizes the weight of cut edges subject to a node-weight balance
// constraint — the "min-cost flow cut" objective Betty's REG partitioning
// reduces redundancy elimination to (§4.3.2).
type Metis struct {
	// Seed drives all randomized choices (visit orders, seeds).
	Seed uint64
	// DisableRefinement turns off KL/FM refinement (ablation knob).
	DisableRefinement bool
	// RandomMatching replaces heavy-edge matching with random matching
	// during coarsening (ablation knob).
	RandomMatching bool

	// last is the most recent coarsening. Coarsening does not depend on k
	// beyond its stopping size, so a Metis partitioning one graph at several
	// k (the memory planner) coarsens once per stopping size: max(120, 15k)
	// is 120 for every k <= 8. A Metis value is therefore not safe for
	// concurrent Partition calls.
	last *coarsening
}

// coarsening is the K-independent prefix of Partition: the matching
// hierarchy of g down to coarsenTo nodes, and the RNG as coarsening left it.
type coarsening struct {
	g         *WeightedGraph
	coarsenTo int
	levels    []level
	coarsest  *WeightedGraph
	rng       rng.RNG
}

// level is one coarsening step: a graph and its fine-to-coarse node map.
type level struct {
	g    *WeightedGraph
	cmap []int32 // fine node -> coarse node in the next level
}

// Name implements Partitioner.
func (m *Metis) Name() string { return "metis" }

// Partition implements Partitioner.
func (m *Metis) Partition(g *WeightedGraph, k int) ([]int32, error) {
	if err := validateK(g, k); err != nil {
		return nil, err
	}
	if g.N == 0 {
		return []int32{}, nil
	}
	if k == 1 {
		return make([]int32, g.N), nil
	}
	// Coarsening stops once this few nodes remain.
	coarsenTo := max(120, 15*k)
	// Coarsening phase, or the remembered one: every partition continues
	// from its own copy of the RNG state coarsening ended in.
	c := m.last
	if c == nil || c.g != g || c.coarsenTo != coarsenTo {
		c = &coarsening{g: g, coarsenTo: coarsenTo, coarsest: g}
		r := rng.New(m.Seed ^ 0x6d657469735f6b)
		for c.coarsest.N > coarsenTo && len(c.levels) < 40 {
			coarse, cmap := m.coarsen(c.coarsest, r)
			if coarse.N >= c.coarsest.N*19/20 {
				break // diminishing returns; stop coarsening
			}
			c.levels = append(c.levels, level{g: c.coarsest, cmap: cmap})
			c.coarsest = coarse
		}
		c.rng = *r
		m.last = c
	}
	rcopy := c.rng
	r, levels, cur := &rcopy, c.levels, c.coarsest

	// Initial partition on the coarsest graph.
	parts := m.initialPartition(cur, k, r)
	if !m.DisableRefinement {
		refine(cur, parts, k, r)
	}

	// Uncoarsening: project and refine at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := make([]int32, lv.g.N)
		for v := 0; v < lv.g.N; v++ {
			fine[v] = parts[lv.cmap[v]]
		}
		parts = fine
		if !m.DisableRefinement {
			refine(lv.g, parts, k, r)
		}
	}
	ensureNonEmpty(g, parts, k, r)
	return parts, nil
}

// coarsen contracts a maximal matching of g. With RandomMatching unset it
// uses heavy-edge matching: each unmatched vertex matches its unmatched
// neighbor with the heaviest connecting edge.
func (m *Metis) coarsen(g *WeightedGraph, r *rng.RNG) (*WeightedGraph, []int32) {
	n := g.N
	match := make([]int32, n)
	cmap := make([]int32, n)
	for i := range match {
		match[i] = -1
		cmap[i] = -1
	}
	order := r.Perm(n)
	var nc int32
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		adj, ewt := g.Neighbors(v)
		best := int32(-1)
		bestW := float32(-1)
		for i, u := range adj {
			if u == v || match[u] != -1 {
				continue
			}
			if m.RandomMatching {
				best = u
				break
			}
			if ewt[i] > bestW {
				bestW = ewt[i]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
			cmap[v] = nc
			cmap[best] = nc
		} else {
			match[v] = v
			cmap[v] = nc
		}
		nc++
	}

	// Build the contracted graph with a dense accumulator over coarse ids.
	ptr := make([]int64, nc+1)
	var adjOut []int32
	var ewtOut []float32
	nwt := make([]float32, nc)
	acc := make([]float32, nc)
	touched := make([]int32, 0, 128)
	// members: iterate fine nodes grouped by coarse id via bucket sort
	memberHead := make([]int32, nc)
	memberNext := make([]int32, n)
	for i := range memberHead {
		memberHead[i] = -1
	}
	for v := n - 1; v >= 0; v-- {
		c := cmap[v]
		memberNext[v] = memberHead[c]
		memberHead[c] = int32(v)
	}
	for c := int32(0); c < nc; c++ {
		touched = touched[:0]
		for v := memberHead[c]; v != -1; v = memberNext[v] {
			nwt[c] += g.NWt[v]
			adj, ewt := g.Neighbors(v)
			for i, u := range adj {
				cu := cmap[u]
				if cu == c {
					continue
				}
				//bettyvet:ok floateq edge weights are positive REG counts, so zero marks first touch exactly
				if acc[cu] == 0 {
					touched = append(touched, cu)
				}
				acc[cu] += ewt[i]
			}
		}
		for _, cu := range touched {
			adjOut = append(adjOut, cu)
			ewtOut = append(ewtOut, acc[cu])
			acc[cu] = 0
		}
		ptr[c+1] = int64(len(adjOut))
	}
	coarse := &WeightedGraph{N: int(nc), Ptr: ptr, Adj: adjOut, EWt: ewtOut, NWt: nwt}
	return coarse, cmap
}

// initialPartition grows k regions by BFS from random seeds until each
// reaches the target weight (greedy graph growing).
func (m *Metis) initialPartition(g *WeightedGraph, k int, r *rng.RNG) []int32 {
	n := g.N
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	total := g.TotalNodeWeight()
	target := total / float64(k)
	order := r.Perm(n)
	seedCursor := 0
	assigned := 0
	queue := make([]int32, 0, 256)

	for p := 0; p < k-1; p++ {
		var w float64
		// leave at least one node per remaining part
		remainingParts := k - 1 - p
		for w < target && assigned < n-remainingParts {
			if len(queue) == 0 {
				// find a fresh unassigned seed
				for seedCursor < n && parts[order[seedCursor]] != -1 {
					seedCursor++
				}
				if seedCursor >= n {
					break
				}
				queue = append(queue, order[seedCursor])
			}
			v := queue[0]
			queue = queue[1:]
			if parts[v] != -1 {
				continue
			}
			parts[v] = int32(p)
			assigned++
			w += float64(g.NWt[v])
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if parts[u] == -1 {
					queue = append(queue, u)
				}
			}
		}
		queue = queue[:0]
	}
	for v := 0; v < n; v++ {
		if parts[v] == -1 {
			parts[v] = int32(k - 1)
		}
	}
	return parts
}

// Refinement's balance bound and effort: a part may weigh imbalance times
// its ideal share (METIS's default ratio), and each level gets at most
// refinePasses passes.
const (
	imbalance    = 1.05
	refinePasses = 8
)

// refine runs greedy boundary KL/FM passes: each pass visits nodes in
// random order and moves a node to the neighboring part with the largest
// positive cut gain, subject to the balance bound.
func refine(g *WeightedGraph, parts []int32, k int, r *rng.RNG) {
	maxAllowed := imbalance * g.TotalNodeWeight() / float64(k)
	partWt := PartWeights(g, parts, k)
	sizes := Sizes(parts, k)
	conn := make([]float32, k)
	connTouched := make([]int32, 0, k)

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		order := r.Perm(g.N)
		for _, v := range order {
			cur := parts[v]
			if sizes[cur] <= 1 {
				continue // never empty a part
			}
			adj, ewt := g.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			connTouched = connTouched[:0]
			for i, u := range adj {
				p := parts[u]
				//bettyvet:ok floateq edge weights are positive REG counts, so zero marks first touch exactly
				if conn[p] == 0 {
					connTouched = append(connTouched, p)
				}
				conn[p] += ewt[i]
			}
			internal := conn[cur]
			nwt := float64(g.NWt[v])
			best := int32(-1)
			var bestConn float32 = -1
			for _, p := range connTouched {
				if p == cur {
					continue
				}
				if partWt[p]+nwt > maxAllowed {
					continue
				}
				if conn[p] > bestConn {
					bestConn = conn[p]
					best = p
				}
			}
			overweight := partWt[cur] > maxAllowed
			if best >= 0 {
				gain := bestConn - internal
				if gain > 0 ||
					//bettyvet:ok floateq FM tie detection; weights are integer-valued counts so sums and differences are exact
					(gain == 0 && partWt[best]+nwt < partWt[cur]) ||
					(overweight && partWt[best]+nwt < partWt[cur]) {
					moveNode(v, cur, best, nwt, parts, partWt, sizes)
					moved++
				}
			} else if overweight {
				// no connected candidate: dump to the globally lightest part
				light := int32(0)
				for p := 1; p < k; p++ {
					if partWt[p] < partWt[light] {
						light = int32(p)
					}
				}
				if light != cur && partWt[light]+nwt < partWt[cur] {
					moveNode(v, cur, light, nwt, parts, partWt, sizes)
					moved++
				}
			}
			for _, p := range connTouched {
				conn[p] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
}

func moveNode(v int32, from, to int32, nwt float64, parts []int32, partWt []float64, sizes []int) {
	parts[v] = to
	partWt[from] -= nwt
	partWt[to] += nwt
	sizes[from]--
	sizes[to]++
}

// ensureNonEmpty guarantees every part owns at least one node by stealing
// from the largest part. It is a final safety net; the growing and
// refinement phases normally keep all parts populated.
func ensureNonEmpty(g *WeightedGraph, parts []int32, k int, r *rng.RNG) {
	sizes := Sizes(parts, k)
	for p := 0; p < k; p++ {
		if sizes[p] > 0 {
			continue
		}
		// find the largest part and move one of its nodes here
		donor := 0
		for q := 1; q < k; q++ {
			if sizes[q] > sizes[donor] {
				donor = q
			}
		}
		if sizes[donor] <= 1 {
			continue // cannot fix without emptying another part
		}
		for _, v := range r.Perm(g.N) {
			if parts[v] == int32(donor) {
				parts[v] = int32(p)
				sizes[donor]--
				sizes[p]++
				break
			}
		}
	}
}

// String describes the configuration, useful in experiment logs.
func (m *Metis) String() string {
	return fmt.Sprintf("metis(seed=%d refine=%t hem=%t)",
		m.Seed, !m.DisableRefinement, !m.RandomMatching)
}
