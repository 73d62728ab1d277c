package graph

import "fmt"

// SliceBatch extracts a micro-batch from a full batch: given the full
// batch's blocks (input-layer first) and a selection of local destination
// indices of the *last* block, it returns the sub-blocks that compute
// exactly those outputs. This is the paper's block_dataloader: the
// micro-batch bipartite is induced on the full batch's sampled edges, so
// the union of all micro-batches over a partition of the outputs covers the
// full batch exactly, and any source shared between micro-batches is
// duplicated (the redundancy Betty minimizes).
//
// Global node and edge IDs (SrcNID/DstNID/EID) are carried through, so the
// micro-batch retains the raw-graph index mapping (§5, "Index mapping").
func SliceBatch(full []*Block, sel []int32) ([]*Block, error) {
	if len(full) == 0 {
		return nil, fmt.Errorf("graph: SliceBatch on empty batch")
	}
	maxSrc := 0
	for _, b := range full {
		maxSrc = max(maxSrc, b.NumSrc)
	}
	local := make([]int32, maxSrc)
	blocks := make([]*Block, len(full))
	cur := sel
	for l := len(full) - 1; l >= 0; l-- {
		nb, srcSel, err := sliceBlock(full[l], cur, local)
		if err != nil {
			return nil, fmt.Errorf("graph: slicing layer %d: %w", l, err)
		}
		blocks[l] = nb
		// The sources selected at this layer are, by the sampler's chaining
		// invariant (inner.DstNID == outer.SrcNID), the destination
		// selection of the next-inner block.
		cur = srcSel
	}
	return blocks, nil
}

// Covered reports whether SliceBatch's covering claim holds for the batch:
// every destination, source and edge of every block lands in at least one
// micro-batch of any partition of the outputs. That is so when each block's
// destinations are exactly the next block's sources and each of its sources
// is a destination or has an edge. Sampler-built batches are covered by
// construction.
func Covered(blocks []*Block) bool {
	for l, b := range blocks {
		if l+1 < len(blocks) && b.NumDst != blocks[l+1].NumSrc {
			return false
		}
		used := make([]bool, b.NumSrc)
		n := b.NumDst
		for _, s := range b.SrcLocal {
			if int(s) >= b.NumDst && !used[s] {
				used[s] = true
				n++
			}
		}
		if n != b.NumSrc {
			return false
		}
	}
	return true
}

// SliceBlock induces the sub-block of b on the destination selection sel
// (local destination indices of b, in the sub-block's destination order).
// It returns the sub-block and srcSel, the b-local source index of each
// sub-block source — the rows to gather from b's input.
//
// The selected destinations become the sub-block's source prefix (b-local
// destination d is also b-local source d), so SrcNID[:NumDst] == DstNID
// holds by construction; the remaining sources follow in first-occurrence
// order of the retained edges. Edge IDs and weights are copied, never
// recomputed; a nil EID or EdgeWt stays nil, and so do all three edge
// arrays when the selection keeps no edge.
//
// Because every forward kernel computes an output row only from that row's
// own inputs (the per-row stability invariant, DESIGN.md §11), a layer
// applied to the sub-block yields rows bitwise equal to the selected rows
// of the full block. SliceBatch cuts micro-batches with it, one layer at a
// time; the embedding cache computes a partial hit's missed rows with it.
func SliceBlock(b *Block, sel []int32) (*Block, []int32, error) {
	return sliceBlock(b, sel, make([]int32, b.NumSrc))
}

// sliceBlock is SliceBlock relabeling through local, a b-local source →
// sub-block source table of at least b.NumSrc entries. The table is never
// cleared: an entry for s is trusted only when srcSel[local[s]] == s, so a
// stale one from an earlier block reads as absent. A selection that repeats
// a destination keeps its last slot, as a map overwrite would.
func sliceBlock(b *Block, sel []int32, local []int32) (*Block, []int32, error) {
	nDst := len(sel)
	if nDst == 0 {
		return nil, nil, fmt.Errorf("empty destination selection")
	}
	dstNID := make([]int32, nDst)
	edges := 0
	for i, d := range sel {
		if d < 0 || int(d) >= b.NumDst {
			return nil, nil, fmt.Errorf("destination index %d out of range [0,%d)", d, b.NumDst)
		}
		local[d] = int32(i)
		dstNID[i] = b.DstNID[d]
		edges += int(b.Ptr[d+1] - b.Ptr[d])
	}
	srcSel := make([]int32, nDst, nDst+min(edges, b.NumSrc))
	copy(srcSel, sel)
	ptr := make([]int64, nDst+1)
	var srcLocal, eid []int32
	var ewt []float32
	if edges > 0 {
		srcLocal = make([]int32, 0, edges)
		if b.EID != nil {
			eid = make([]int32, 0, edges)
		}
		if b.EdgeWt != nil {
			ewt = make([]float32, 0, edges)
		}
	}
	for i, d := range sel {
		lo, hi := b.Ptr[d], b.Ptr[d+1]
		for _, s := range b.SrcLocal[lo:hi] {
			li := local[s]
			if int(li) >= len(srcSel) || srcSel[li] != s {
				li = int32(len(srcSel))
				local[s] = li
				srcSel = append(srcSel, s)
			}
			srcLocal = append(srcLocal, li)
		}
		if eid != nil {
			eid = append(eid, b.EID[lo:hi]...)
		}
		if ewt != nil {
			ewt = append(ewt, b.EdgeWt[lo:hi]...)
		}
		ptr[i+1] = int64(len(srcLocal))
	}
	srcNID := make([]int32, len(srcSel))
	for i, s := range srcSel {
		srcNID[i] = b.SrcNID[s]
	}
	nb := &Block{
		NumSrc:   len(srcSel),
		NumDst:   nDst,
		Ptr:      ptr,
		SrcLocal: srcLocal,
		EID:      eid,
		EdgeWt:   ewt,
		SrcNID:   srcNID,
		DstNID:   dstNID,
	}
	return nb, srcSel, nil
}

// InputRedundancy measures the duplicated layer-1 input nodes across
// micro-batches relative to the full batch: the sum of the micro-batches'
// input source counts minus the full batch's (§6.5's "input nodes
// redundancy" metric counts exactly these duplicated loads).
func InputRedundancy(full []*Block, micro [][]*Block) int {
	total := 0
	for _, mb := range micro {
		if len(mb) > 0 {
			total += mb[0].NumSrc
		}
	}
	if len(full) == 0 {
		return total
	}
	return total - full[0].NumSrc
}

// TotalInputNodes sums the first-layer input counts over micro-batches
// (Table 6's "total number of the first layer input").
func TotalInputNodes(micro [][]*Block) int {
	total := 0
	for _, mb := range micro {
		if len(mb) > 0 {
			total += mb[0].NumSrc
		}
	}
	return total
}
