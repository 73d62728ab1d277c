package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Block is one bipartite layer of a GNN mini-batch: edges flow from source
// (neighbor) nodes to destination (center) nodes. A multi-layer batch is a
// []*Block ordered input-layer first, output-layer last, where layer l's
// source node set equals layer l+1's... — more precisely, blocks[l+1].DstNID
// is a prefix-compatible subset: blocks produced by sampling satisfy
// blocks[l].DstNID == blocks[l+1].SrcNID is NOT required; instead
// blocks[l].DstNID (the nodes computed by layer l) equals blocks[l+1]'s
// source frontier. See sample.Sampler for the construction.
//
// Following the DGL convention, the first NumDst source slots are the
// destination nodes themselves (SrcNID[:NumDst] == DstNID), so features
// computed for destinations can be read from the source tensor prefix.
//
// Index mapping (§5 of the paper): SrcNID/DstNID map local (within-block)
// indices to global node IDs in the raw graph, and EID maps local edge
// indices to global edge IDs. Micro-batch blocks produced by slicing a
// full-batch block keep the *raw-graph* IDs, which is exactly the
// "dictionary bookmarking local indices to global indices" the paper adds.
type Block struct {
	// NumSrc and NumDst are the sizes of the two node sets.
	NumSrc, NumDst int

	// CSC layout over destinations: the in-edges of local destination d are
	// positions Ptr[d]..Ptr[d+1] of SrcLocal and EID.
	Ptr      []int64
	SrcLocal []int32

	// EID holds the global (raw-graph) edge ID of each block edge, or -1
	// when the edge does not correspond to a raw-graph edge.
	EID []int32

	// EdgeWt holds per-edge weights (Equation 1's e_uv) parallel to
	// SrcLocal; nil means unit weights.
	EdgeWt []float32

	// SrcNID and DstNID map local source/destination indices to global
	// node IDs. SrcNID[:NumDst] == DstNID.
	SrcNID []int32
	DstNID []int32

	// Derived-view caches. A Block is immutable once constructed, and the
	// model layers re-derive the same per-edge index views on every forward
	// pass of every micro-batch; memoizing them here removes that rebuild
	// from the training hot path. Blocks are always handled by pointer
	// (sync.Once makes copying a vet error), and the caches are safe for
	// concurrent use.
	pairsOnce          sync.Once
	srcPairs, dstPairs []int32

	lstmOnce    sync.Once
	lstmBuckets []DegreeBucket

	srcInvOnce sync.Once
	srcInvCnt  []int32
	srcInvPos  []int32
	invDegOnce sync.Once
	invDeg     []float32
}

// NumEdges returns the number of edges in the block.
func (b *Block) NumEdges() int { return len(b.SrcLocal) }

// InDegree returns the in-degree of local destination d.
func (b *Block) InDegree(d int) int {
	return int(b.Ptr[d+1] - b.Ptr[d])
}

// EdgePairs expands the CSC layout into parallel (srcLocal, dstLocal)
// per-edge index slices, the format the tensor segment ops consume. The
// expansion is computed once per block and the cached slices are returned
// on every later call; callers must not modify them. dst is non-decreasing
// by construction, which is what lets the tensor segment kernels shard on
// destination boundaries.
func (b *Block) EdgePairs() (src, dst []int32) {
	b.pairsOnce.Do(func() {
		b.srcPairs = make([]int32, b.NumEdges())
		b.dstPairs = make([]int32, b.NumEdges())
		for d := 0; d < b.NumDst; d++ {
			for p := b.Ptr[d]; p < b.Ptr[d+1]; p++ {
				b.srcPairs[p] = b.SrcLocal[p]
				b.dstPairs[p] = int32(d)
			}
		}
	})
	return b.srcPairs, b.dstPairs
}

// SrcInverse returns the inverse of the block's per-edge source index:
// positions pos[cnt[r]:cnt[r+1]] list, in ascending order, the edge
// positions p with SrcLocal[p] == r. The fused aggregation backward
// (tensor.FusedCSRAgg, through the tensor.SrcInverter the block is) asks
// for it so each source row is owned by exactly one worker; a block whose
// aggregation no backward reads (serving, evaluation, a layer over the
// input features) never builds it. Memoizing it here removes the rebuild —
// and its two allocations — from every later backward pass over the
// block. Callers must not modify the returned slices.
func (b *Block) SrcInverse() (cnt, pos []int32) {
	b.srcInvOnce.Do(func() {
		cnt := make([]int32, b.NumSrc+1)
		for _, s := range b.SrcLocal {
			cnt[s+1]++
		}
		for r := 0; r < b.NumSrc; r++ {
			cnt[r+1] += cnt[r]
		}
		fill := make([]int32, b.NumSrc)
		pos := make([]int32, len(b.SrcLocal))
		for p, s := range b.SrcLocal {
			pos[cnt[s]+fill[s]] = int32(p)
			fill[s]++
		}
		b.srcInvCnt, b.srcInvPos = cnt, pos
	})
	return b.srcInvCnt, b.srcInvPos
}

// InvInDegree returns 1/in-degree per local destination (0 for isolated
// destinations) — the mean-aggregation post-scale — computed once per
// block. Callers must not modify the returned slice.
func (b *Block) InvInDegree() []float32 {
	b.invDegOnce.Do(func() {
		inv := make([]float32, b.NumDst)
		for d := 0; d < b.NumDst; d++ {
			if deg := b.InDegree(d); deg > 0 {
				inv[d] = 1 / float32(deg)
			}
		}
		b.invDeg = inv
	})
	return b.invDeg
}

// InDegreeHistogram buckets the block's destination nodes by in-degree with
// saturation at maxBucket, mirroring Graph.InDegreeHistogram.
func (b *Block) InDegreeHistogram(maxBucket int) []int {
	h := make([]int, maxBucket+1)
	for d := 0; d < b.NumDst; d++ {
		deg := b.InDegree(d)
		if deg >= maxBucket {
			h[maxBucket]++
		} else {
			h[deg]++
		}
	}
	return h
}

// DegreeBuckets groups local destination indices by exact in-degree,
// the "NodeBatch" bucketing used by the LSTM aggregator (§4.4.2). The map
// key is the in-degree; destinations with zero in-degree are included under
// key 0 so aggregators can give them zero neighborhoods.
func (b *Block) DegreeBuckets() map[int][]int32 {
	buckets := make(map[int][]int32)
	for d := 0; d < b.NumDst; d++ {
		deg := b.InDegree(d)
		buckets[deg] = append(buckets[deg], int32(d))
	}
	return buckets
}

// DegreeBucket is one NodeBatch of the LSTM aggregator (§4.4.2): the
// destinations sharing in-degree Deg, plus the per-timestep gather indices
// Steps[t][i] = the t-th in-neighbor of Nodes[i]. Precomputing Steps turns
// every LSTM timestep into a single dense GatherRows with no per-forward
// index rebuilding.
type DegreeBucket struct {
	Deg   int
	Nodes []int32
	Steps [][]int32
}

// LSTMBuckets returns the block's degree buckets with precomputed timestep
// index matrices, in ascending degree order, excluding zero-degree
// destinations (which keep a zero aggregate). The buckets are built once
// per block; callers must not modify the returned slices.
func (b *Block) LSTMBuckets() []DegreeBucket {
	b.lstmOnce.Do(func() {
		byDeg := b.DegreeBuckets()
		degrees := make([]int, 0, len(byDeg))
		for d := range byDeg {
			if d > 0 {
				degrees = append(degrees, d)
			}
		}
		sort.Ints(degrees)
		b.lstmBuckets = make([]DegreeBucket, 0, len(degrees))
		for _, deg := range degrees {
			nodes := byDeg[deg]
			steps := make([][]int32, deg)
			for t := 0; t < deg; t++ {
				idx := make([]int32, len(nodes))
				for i, d := range nodes {
					idx[i] = b.SrcLocal[b.Ptr[d]+int64(t)]
				}
				steps[t] = idx
			}
			b.lstmBuckets = append(b.lstmBuckets, DegreeBucket{Deg: deg, Nodes: nodes, Steps: steps})
		}
	})
	return b.lstmBuckets
}

// Validate checks the block's structural invariants.
func (b *Block) Validate() error {
	if len(b.DstNID) != b.NumDst || len(b.SrcNID) != b.NumSrc {
		return fmt.Errorf("block: NID length mismatch")
	}
	if b.NumSrc < b.NumDst {
		return fmt.Errorf("block: NumSrc %d < NumDst %d (dst must be a src prefix)", b.NumSrc, b.NumDst)
	}
	for i := 0; i < b.NumDst; i++ {
		if b.SrcNID[i] != b.DstNID[i] {
			return fmt.Errorf("block: SrcNID[%d]=%d != DstNID[%d]=%d", i, b.SrcNID[i], i, b.DstNID[i])
		}
	}
	if len(b.Ptr) != b.NumDst+1 {
		return fmt.Errorf("block: Ptr length %d, want %d", len(b.Ptr), b.NumDst+1)
	}
	if b.Ptr[0] != 0 {
		return fmt.Errorf("block: Ptr[0]=%d, want 0", b.Ptr[0])
	}
	if b.Ptr[b.NumDst] != int64(len(b.SrcLocal)) {
		return fmt.Errorf("block: Ptr does not cover all edges")
	}
	if len(b.EID) != len(b.SrcLocal) {
		return fmt.Errorf("block: EID length mismatch")
	}
	if b.EdgeWt != nil && len(b.EdgeWt) != len(b.SrcLocal) {
		return fmt.Errorf("block: EdgeWt length mismatch")
	}
	if !isNonDecreasing(b.Ptr) {
		return fmt.Errorf("block: Ptr not monotone")
	}
	for _, s := range b.SrcLocal {
		if s < 0 || int(s) >= b.NumSrc {
			return fmt.Errorf("block: source index %d out of range [0,%d)", s, b.NumSrc)
		}
	}
	return nil
}

// BatchStats summarizes a multi-layer batch (input-first block list) for
// memory estimation and redundancy accounting.
type BatchStats struct {
	// NumInput is the number of source nodes of the input (first) block —
	// the rows of the input-feature tensor the batch loads.
	NumInput int
	// NumOutput is the number of destination nodes of the output (last)
	// block — the labeled nodes.
	NumOutput int
	// TotalEdges sums edge counts over all blocks.
	TotalEdges int
	// TotalNodes sums source-node counts over all blocks plus the final
	// destination count: every feature/hidden row materialized.
	TotalNodes int
	// DstPerLayer lists NumDst per block, input-first.
	DstPerLayer []int
	// SrcPerLayer lists NumSrc per block, input-first.
	SrcPerLayer []int
}

// Stats computes BatchStats for an input-first block list.
func Stats(blocks []*Block) BatchStats {
	var s BatchStats
	if len(blocks) == 0 {
		return s
	}
	s.NumInput = blocks[0].NumSrc
	s.NumOutput = blocks[len(blocks)-1].NumDst
	for _, b := range blocks {
		s.TotalEdges += b.NumEdges()
		s.TotalNodes += b.NumSrc
		s.DstPerLayer = append(s.DstPerLayer, b.NumDst)
		s.SrcPerLayer = append(s.SrcPerLayer, b.NumSrc)
	}
	s.TotalNodes += s.NumOutput
	return s
}
