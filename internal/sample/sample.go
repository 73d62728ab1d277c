// Package sample implements fanout-bounded neighbor sampling, producing the
// hierarchical bipartite batch structure (a list of graph.Blocks) that GNN
// mini-batch training consumes — the role of DGL's
// MultiLayerNeighborSampler + to_block in the original Betty implementation.
package sample

import (
	"fmt"
	"sync"

	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/rng"
)

// FullNeighbors as a fanout selects every in-neighbor (no sampling bound).
const FullNeighbors = -1

// Sampler draws fanout-bounded multi-layer neighborhoods. Fanouts are
// ordered input-layer first, matching the (10, 25, ...) tuples in the paper:
// Fanouts[len-1] bounds the neighbors of the seed (output) nodes, and
// Fanouts[0] bounds the outermost (input) layer.
//
// A Sampler holds no mutable state: every Sample call derives its random
// streams from (seed, seeds[0], layer), so results depend only on the
// call's arguments — never on how many Sample calls preceded it — and
// concurrent Sample calls are safe.
type Sampler struct {
	fanouts []int
	seed    uint64

	// Obs, when non-nil, receives one PhaseSample span per Sample call.
	// The sampler never reads a clock itself (this package is a kernel
	// package, so bettyvet's dettaint forbids it); timing comes entirely
	// from the registry's injected Clock, keeping Sample's outputs a pure
	// function of (graph, seeds, config).
	Obs *obs.Registry
}

// New returns a sampler with the given input-first fanouts and RNG seed.
// A fanout of FullNeighbors (-1) disables the bound for that layer.
func New(fanouts []int, seed uint64) *Sampler {
	return &Sampler{fanouts: append([]int(nil), fanouts...), seed: seed}
}

// NumLayers returns the number of block layers the sampler produces.
func (s *Sampler) NumLayers() int { return len(s.fanouts) }

// ConfigKey hashes the sampler's full configuration (fanouts, seed). Two
// samplers with equal keys draw identical neighborhoods for identical seed
// sets, which is what lets a persisted macrobatch (store.MacroCache)
// verify it was sampled under this configuration.
func (s *Sampler) ConfigKey() uint64 {
	h := mix64(s.seed ^ 0xa0761d6478bd642f)
	for _, f := range s.fanouts {
		h = mix64(h ^ uint64(uint32(int32(f))))
	}
	return h
}

// Fanouts returns a copy of the configured fanouts, input-first.
func (s *Sampler) Fanouts() []int { return append([]int(nil), s.fanouts...) }

// Sample draws the multi-level bipartite neighborhood of seeds in g.
// The returned blocks are ordered input-layer first; the last block's
// DstNID equals seeds.
func (s *Sampler) Sample(g *graph.Graph, seeds []int32) ([]*graph.Block, error) {
	return s.sample(g, seeds, false)
}

// sample is the one sampling loop behind Sampler and NodeWise. The two
// differ only in where a destination's random stream comes from: with
// perNode false, one stream per (call, layer), keyed by seeds[0]; with
// perNode true, one per (node, layer), keyed by the destination itself.
func (s *Sampler) sample(g *graph.Graph, seeds []int32, perNode bool) ([]*graph.Block, error) {
	if len(s.fanouts) == 0 {
		return nil, fmt.Errorf("sample: no fanouts configured")
	}
	for _, v := range seeds {
		if v < 0 || v >= g.NumNodes() {
			return nil, fmt.Errorf("sample: seed %d out of range", v)
		}
	}
	sp := s.Obs.StartSpan(obs.PhaseSample).
		SetInt("seeds", int64(len(seeds))).
		SetInt("layers", int64(len(s.fanouts)))
	defer sp.End()
	var callKey int32
	if len(seeds) > 0 {
		callKey = seeds[0]
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if n := int(g.NumNodes()); len(sc.local) < n {
		sc.local = make([]int32, n)
	}
	blocks := make([]*graph.Block, len(s.fanouts))
	frontier := seeds
	for l := len(s.fanouts) - 1; l >= 0; l-- {
		b := s.sampleLayer(g, frontier, l, callKey, perNode, sc)
		blocks[l] = b
		frontier = b.SrcNID
	}
	sp.SetInt("input_nodes", int64(len(frontier)))
	return blocks, nil
}

// stream derives the generator for one layer from the sampler seed, a key
// node and the layer index. Keyed by the call's first seed, two calls with
// the same seed set draw identical neighborhoods regardless of call order
// or interleaving, which is what makes chunk-parallel evaluation
// deterministic; keyed by the destination, a node's draw is independent of
// its batch. It is returned by value so that a node-wise draw, one stream
// per destination, stays on the caller's stack.
func (s *Sampler) stream(key int32, layer int) rng.RNG {
	h := mix64(s.seed ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ (uint64(uint32(key)) + 0xbf58476d1ce4e5b9))
	h = mix64(h ^ (uint64(layer)+1)*0x94d049bb133111eb)
	return *rng.New(h)
}

// mix64 is the splitmix64 finalizer, used to hash the stream key.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scratch is one Sample call's working memory: local is the node →
// local-source table, and src/eid hold one destination's reservoir draw.
// local is never cleared: an entry for u is trusted only when it points at
// a source slot holding u (sampleLayer's back-check), so a stale entry
// from an earlier layer, call or graph reads as absent.
type scratch struct {
	local    []int32
	src, eid []int32
}

// scratchPool recycles scratch across Sample calls; each call holds its
// own, so concurrent calls never share one.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sampleLayer builds one bipartite block: for every destination in frontier
// it draws up to the layer's fanout in-neighbors from g, from the call's
// stream or (perNode) from the destination's own. Sources are relabeled
// through sc.local; a frontier that repeats a node keeps its last slot, as
// a map overwrite would.
func (s *Sampler) sampleLayer(g *graph.Graph, frontier []int32, layer int, callKey int32, perNode bool, sc *scratch) *graph.Block {
	nDst := len(frontier)
	fanout := s.fanouts[layer]
	ptr := make([]int64, nDst+1)
	for d, v := range frontier {
		n := g.InDegree(v)
		if fanout != FullNeighbors && n > fanout {
			n = fanout
		}
		ptr[d+1] = ptr[d] + int64(n)
	}
	edges := int(ptr[nDst])
	// Every source beyond the destinations comes from a distinct edge and
	// is a distinct graph node.
	srcNID := make([]int32, nDst, nDst+min(edges, int(g.NumNodes())))
	copy(srcNID, frontier)
	local := sc.local
	for i, v := range frontier {
		local[v] = int32(i)
	}

	var srcLocal, eid []int32
	if edges > 0 {
		srcLocal = make([]int32, edges)
		eid = make([]int32, edges)
	}
	if fanout > cap(sc.src) {
		sc.src, sc.eid = make([]int32, 0, fanout), make([]int32, 0, fanout)
	}
	var r rng.RNG
	if !perNode {
		r = s.stream(callKey, layer)
	}
	for d, v := range frontier {
		if perNode {
			r = s.stream(v, layer)
		}
		neigh, eids := g.InNeighbors(v)
		chosenSrc, chosenEID := chooseNeighbors(&r, neigh, eids, fanout, sc.src, sc.eid)
		p := ptr[d]
		copy(eid[p:], chosenEID)
		for i, u := range chosenSrc {
			li := local[u]
			if int(li) >= len(srcNID) || srcNID[li] != u {
				li = int32(len(srcNID))
				local[u] = li
				srcNID = append(srcNID, u)
			}
			srcLocal[p+int64(i)] = li
		}
	}

	b := &graph.Block{
		NumSrc:   len(srcNID),
		NumDst:   nDst,
		Ptr:      ptr,
		SrcLocal: srcLocal,
		EID:      eid,
		SrcNID:   srcNID,
		DstNID:   append([]int32(nil), frontier...),
	}
	if g.HasWeights() {
		b.EdgeWt = make([]float32, len(eid))
		for i, e := range eid {
			b.EdgeWt[i] = g.EdgeWeight(e)
		}
	}
	return b
}

// chooseNeighbors selects up to fanout entries of neigh/eids using r. With
// fanout disabled or enough capacity it returns the inputs unchanged;
// otherwise it reservoir-samples without replacement.
func chooseNeighbors(r *rng.RNG, neigh, eids []int32, fanout int, scratchSrc, scratchEID []int32) ([]int32, []int32) {
	if fanout == FullNeighbors || len(neigh) <= fanout {
		return neigh, eids
	}
	scratchSrc = scratchSrc[:0]
	scratchEID = scratchEID[:0]
	// Reservoir sampling (Algorithm R): uniform without replacement.
	scratchSrc = append(scratchSrc, neigh[:fanout]...)
	scratchEID = append(scratchEID, eids[:fanout]...)
	for i := fanout; i < len(neigh); i++ {
		j := r.Intn(i + 1)
		if j < fanout {
			scratchSrc[j] = neigh[i]
			scratchEID[j] = eids[i]
		}
	}
	return scratchSrc, scratchEID
}
