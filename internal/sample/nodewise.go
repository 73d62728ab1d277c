package sample

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/rng"
)

// NodeWise draws fanout-bounded neighborhoods whose randomness is keyed
// per node rather than per call: the sampled in-neighbors of node v at
// layer l are a pure function of (sampler seed, v, l) — never of which
// other nodes share the batch. Two overlapping seed sets therefore sample
// identical neighborhoods for every shared node, which is what lets the
// online serving batcher coalesce concurrent requests into one batch and
// still return, for each request, bitwise the result it would have gotten
// alone: shared frontier nodes deduplicate instead of diverging.
//
// This is the serving-side counterpart of Sampler, whose per-call streams
// (keyed by seeds[0]) make whole-batch training draws order-independent
// but make a node's neighborhood depend on its batch. Training keeps
// Sampler; the request path uses NodeWise.
type NodeWise struct {
	fanouts []int
	seed    uint64

	// Obs, when non-nil, receives one PhaseSample span per Sample call.
	// As with Sampler, time enters only through the registry's injected
	// Clock (this is a kernel package; dettaint forbids a clock here).
	Obs *obs.Registry
}

// NewNodeWise returns a node-wise sampler with the given input-first
// fanouts and RNG seed. A fanout of FullNeighbors (-1) disables the bound
// for that layer.
func NewNodeWise(fanouts []int, seed uint64) *NodeWise {
	return &NodeWise{fanouts: append([]int(nil), fanouts...), seed: seed}
}

// NumLayers returns the number of block layers the sampler produces.
func (s *NodeWise) NumLayers() int { return len(s.fanouts) }

// Fanouts returns a copy of the configured fanouts, input-first.
func (s *NodeWise) Fanouts() []int { return append([]int(nil), s.fanouts...) }

// Sample draws the multi-level bipartite neighborhood of seeds in g. The
// returned blocks are ordered input-layer first; the last block's DstNID
// equals seeds. Unlike Sampler.Sample, the draw for each frontier node is
// independent of every other node in the call, so for any two seed sets
// the blocks agree on every shared node's in-edges (set and order).
func (s *NodeWise) Sample(g *graph.Graph, seeds []int32) ([]*graph.Block, error) {
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
	blocks := make([]*graph.Block, len(s.fanouts))
	frontier := append([]int32(nil), seeds...)
	for l := len(s.fanouts) - 1; l >= 0; l-- {
		b := s.sampleLayer(g, frontier, s.fanouts[l], l)
		blocks[l] = b
		frontier = b.SrcNID
	}
	sp.SetInt("input_nodes", int64(len(frontier)))
	return blocks, nil
}

// nodeRNG derives the generator for one (node, layer) pair. The stream
// depends only on the sampler seed, the node's global ID, and the layer —
// the per-node analogue of Sampler.layerRNG.
func (s *NodeWise) nodeRNG(nid int32, layer int) *rng.RNG {
	h := mix64(s.seed ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ (uint64(uint32(nid)) + 0xbf58476d1ce4e5b9))
	h = mix64(h ^ (uint64(layer)+1)*0x94d049bb133111eb)
	return rng.New(h)
}

// sampleLayer builds one bipartite block, drawing each destination's
// neighbors from that destination's own derived stream.
func (s *NodeWise) sampleLayer(g *graph.Graph, frontier []int32, fanout, layer int) *graph.Block {
	nDst := len(frontier)
	local := make(map[int32]int32, nDst*2)
	srcNID := make([]int32, nDst, nDst*2)
	copy(srcNID, frontier)
	for i, v := range frontier {
		local[v] = int32(i)
	}

	ptr := make([]int64, nDst+1)
	var srcLocal, eid []int32
	scratchSrc := make([]int32, 0, 64)
	scratchEID := make([]int32, 0, 64)

	for d := 0; d < nDst; d++ {
		neigh, eids := g.InNeighbors(frontier[d])
		chosenSrc, chosenEID := chooseNeighbors(s.nodeRNG(frontier[d], layer),
			neigh, eids, fanout, scratchSrc, scratchEID)
		for i, u := range chosenSrc {
			li, ok := local[u]
			if !ok {
				li = int32(len(srcNID))
				local[u] = li
				srcNID = append(srcNID, u)
			}
			srcLocal = append(srcLocal, li)
			eid = append(eid, chosenEID[i])
		}
		ptr[d+1] = int64(len(srcLocal))
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
// otherwise it reservoir-samples without replacement. Shared by Sampler
// and NodeWise — the samplers differ only in how r is derived.
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
