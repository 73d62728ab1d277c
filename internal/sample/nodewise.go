package sample

import "betty/internal/graph"

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
// Sampler; the request path uses NodeWise. Both run the same sampling
// loop and carry the same configuration and Obs field; only the stream
// key differs.
type NodeWise Sampler

// NewNodeWise returns a node-wise sampler with the given input-first
// fanouts and RNG seed. A fanout of FullNeighbors (-1) disables the bound
// for that layer.
func NewNodeWise(fanouts []int, seed uint64) *NodeWise {
	return (*NodeWise)(New(fanouts, seed))
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
	return (*Sampler)(s).sample(g, seeds, true)
}
