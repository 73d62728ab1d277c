package graph

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"betty/internal/rng"
)

// buildChain constructs a deterministic two-layer batch over a tiny raw
// graph for slicing tests. Layer sizes: inner 5 dst / 8 src, outer 2 dst /
// 5 src; the inner block's DstNID equals the outer block's SrcNID.
func buildChain() []*Block {
	outer := &Block{
		NumSrc:   5,
		NumDst:   2,
		Ptr:      []int64{0, 3, 5},
		SrcLocal: []int32{2, 3, 1, 2, 4},
		EID:      []int32{10, 11, 12, 13, 14},
		SrcNID:   []int32{100, 101, 102, 103, 104},
		DstNID:   []int32{100, 101},
	}
	inner := &Block{
		NumSrc:   8,
		NumDst:   5,
		Ptr:      []int64{0, 2, 3, 5, 7, 8},
		SrcLocal: []int32{5, 6, 7, 1, 5, 0, 6, 7},
		EID:      []int32{20, 21, 22, 23, 24, 25, 26, 27},
		SrcNID:   []int32{100, 101, 102, 103, 104, 200, 201, 202},
		DstNID:   []int32{100, 101, 102, 103, 104},
	}
	return []*Block{inner, outer}
}

func TestSliceBatchSingleOutput(t *testing.T) {
	full := buildChain()
	micro, err := SliceBatch(full, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != 2 {
		t.Fatalf("got %d layers", len(micro))
	}
	mOuter, mInner := micro[1], micro[0]
	if err := mOuter.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mInner.Validate(); err != nil {
		t.Fatal(err)
	}
	// output 0 (NID 100) draws from sources {102, 103, 101} plus itself
	if mOuter.NumDst != 1 || mOuter.DstNID[0] != 100 {
		t.Fatalf("outer dst = %v", mOuter.DstNID)
	}
	if mOuter.NumSrc != 4 {
		t.Fatalf("outer src count = %d, want 4 (100,102,103,101)", mOuter.NumSrc)
	}
	// chaining invariant
	if mInner.NumDst != mOuter.NumSrc {
		t.Fatal("micro blocks do not chain")
	}
	for i := range mInner.DstNID {
		if mInner.DstNID[i] != mOuter.SrcNID[i] {
			t.Fatal("micro frontier NIDs do not chain")
		}
	}
	// EIDs preserved: outer edges of output 0 were 10, 11, 12
	if len(mOuter.EID) != 3 || mOuter.EID[0] != 10 || mOuter.EID[1] != 11 || mOuter.EID[2] != 12 {
		t.Fatalf("outer EIDs = %v", mOuter.EID)
	}
}

func TestSliceBatchFullSelectionIsIdentity(t *testing.T) {
	full := buildChain()
	micro, err := SliceBatch(full, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for l := range full {
		if micro[l].NumSrc != full[l].NumSrc || micro[l].NumEdges() != full[l].NumEdges() {
			t.Fatalf("layer %d: full selection changed the batch: %d/%d src, %d/%d edges",
				l, micro[l].NumSrc, full[l].NumSrc, micro[l].NumEdges(), full[l].NumEdges())
		}
		for i := range full[l].SrcNID {
			if micro[l].SrcNID[i] != full[l].SrcNID[i] {
				t.Fatalf("layer %d: source order changed", l)
			}
		}
	}
}

func TestSliceBatchErrors(t *testing.T) {
	full := buildChain()
	if _, err := SliceBatch(nil, []int32{0}); err == nil {
		t.Fatal("empty batch not rejected")
	}
	if _, err := SliceBatch(full, nil); err == nil {
		t.Fatal("empty selection not rejected")
	}
	if _, err := SliceBatch(full, []int32{9}); err == nil {
		t.Fatal("out-of-range selection not rejected")
	}
}

// randomBatch builds a random raw graph and samples a full 2-layer batch
// from it using only package-local structures (mirrors sample.Sampler).
func randomBatchForSlice(seed uint64) []*Block {
	r := rng.New(seed)
	n := int32(30 + r.Intn(100))
	m := 8 * int(n)
	src := make([]int32, m)
	dst := make([]int32, m)
	for i := range src {
		src[i] = r.Int31n(n)
		dst[i] = r.Int31n(n)
	}
	g, err := FromEdges(n, src, dst)
	if err != nil {
		panic(err)
	}
	nSeeds := 4 + r.Intn(8)
	seeds := r.Perm(int(n))[:nSeeds]
	// full-neighbor two-layer expansion
	layer := func(frontier []int32) *Block {
		local := map[int32]int32{}
		srcNID := append([]int32(nil), frontier...)
		for i, v := range frontier {
			local[v] = int32(i)
		}
		b := &Block{NumDst: len(frontier), DstNID: append([]int32(nil), frontier...), Ptr: make([]int64, 1, len(frontier)+1)}
		for _, v := range frontier {
			ss, es := g.InNeighbors(v)
			for i, u := range ss {
				li, ok := local[u]
				if !ok {
					li = int32(len(srcNID))
					local[u] = li
					srcNID = append(srcNID, u)
				}
				b.SrcLocal = append(b.SrcLocal, li)
				b.EID = append(b.EID, es[i])
			}
			b.Ptr = append(b.Ptr, int64(len(b.SrcLocal)))
		}
		b.SrcNID = srcNID
		b.NumSrc = len(srcNID)
		return b
	}
	outer := layer(seeds)
	inner := layer(outer.SrcNID)
	return []*Block{inner, outer}
}

// Property: for random batches and random 2-way splits, (1) each micro
// batch validates and chains, (2) micro outputs partition the full outputs,
// (3) every micro edge appears in the full block with identical EID, and
// (4) union of micro input nodes equals the full input node set.
func TestSliceBatchProperties(t *testing.T) {
	f := func(seed uint64) bool {
		full := randomBatchForSlice(seed)
		last := full[len(full)-1]
		r := rng.New(seed ^ 0xabc)
		perm := r.Perm(last.NumDst)
		cutAt := 1 + r.Intn(last.NumDst-1+1)
		if cutAt >= last.NumDst {
			cutAt = last.NumDst - 1
		}
		if cutAt < 1 {
			cutAt = 1
		}
		selA, selB := perm[:cutAt], perm[cutAt:]
		if len(selB) == 0 {
			return true
		}
		microA, err := SliceBatch(full, selA)
		if err != nil {
			return false
		}
		microB, err := SliceBatch(full, selB)
		if err != nil {
			return false
		}
		for _, micro := range [][]*Block{microA, microB} {
			for l, b := range micro {
				if b.Validate() != nil {
					return false
				}
				if l+1 < len(micro) {
					if b.NumDst != micro[l+1].NumSrc {
						return false
					}
				}
			}
		}
		// outputs partition
		outs := map[int32]int{}
		for _, d := range microA[len(microA)-1].DstNID {
			outs[d]++
		}
		for _, d := range microB[len(microB)-1].DstNID {
			outs[d]++
		}
		if len(outs) != last.NumDst {
			return false
		}
		for _, c := range outs {
			if c != 1 {
				return false
			}
		}
		// input union
		fullInputs := map[int32]bool{}
		for _, v := range full[0].SrcNID {
			fullInputs[v] = true
		}
		microInputs := map[int32]bool{}
		for _, v := range microA[0].SrcNID {
			microInputs[v] = true
		}
		for _, v := range microB[0].SrcNID {
			microInputs[v] = true
		}
		if len(fullInputs) != len(microInputs) {
			return false
		}
		for v := range microInputs {
			if !fullInputs[v] {
				return false
			}
		}
		// redundancy is non-negative and consistent with TotalInputNodes
		red := InputRedundancy(full, [][]*Block{microA, microB})
		if red < 0 {
			return false
		}
		if TotalInputNodes([][]*Block{microA, microB}) != full[0].NumSrc+red {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Slicing carries edge weights through to the micro-batch blocks.
func TestSliceCarriesEdgeWeights(t *testing.T) {
	full := buildChain()
	full[0].EdgeWt = []float32{1, 2, 3, 4, 5, 6, 7, 8}
	full[1].EdgeWt = []float32{10, 11, 12, 13, 14}
	micro, err := SliceBatch(full, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	mOuter := micro[1]
	if mOuter.EdgeWt == nil {
		t.Fatal("slice dropped edge weights")
	}
	// output 0's edges in the full outer block are positions 0..2
	for i := 0; i < 3; i++ {
		if math.Float32bits(mOuter.EdgeWt[i]) != math.Float32bits(full[1].EdgeWt[i]) {
			t.Fatalf("weight %d = %v, want %v", i, mOuter.EdgeWt[i], full[1].EdgeWt[i])
		}
	}
	if err := mOuter.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInputRedundancyEmptyFull(t *testing.T) {
	micro := [][]*Block{buildChain()}
	if InputRedundancy(nil, micro) != 8 {
		t.Fatal("redundancy with empty full batch should equal micro total")
	}
}

// TestSliceBlock pins one destination-restricted sub-block by hand: the
// kept destinations prefix the sources, the rest follow in first-use
// order, and edge IDs and weights are copied bit for bit.
func TestSliceBlock(t *testing.T) {
	b := &Block{
		NumDst:   3,
		NumSrc:   5,
		Ptr:      []int64{0, 2, 5, 6},
		SrcLocal: []int32{0, 3, 1, 3, 4, 2},
		EID:      []int32{0, 1, 2, 3, 4, 5},
		EdgeWt:   []float32{1, 2, 3, 4, 5, 6},
		DstNID:   []int32{10, 11, 12},
		SrcNID:   []int32{10, 11, 12, 20, 21},
	}
	sub, srcSel, err := sliceBlock(b, []int32{0, 2}, make([]int32, b.NumSrc))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumDst != 2 || sub.NumSrc != 3 {
		t.Fatalf("sub sizes %d/%d, want 2/3", sub.NumDst, sub.NumSrc)
	}
	wt := make([]uint32, len(sub.EdgeWt))
	for i, w := range sub.EdgeWt {
		wt[i] = math.Float32bits(w)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"srcSel", srcSel, []int32{0, 2, 3}},
		{"DstNID", sub.DstNID, []int32{10, 12}},
		{"SrcNID", sub.SrcNID, []int32{10, 12, 20}},
		{"Ptr", sub.Ptr, []int64{0, 2, 3}},
		{"SrcLocal", sub.SrcLocal, []int32{0, 2, 1}},
		{"EID", sub.EID, []int32{0, 1, 5}},
		{"EdgeWt", wt, []uint32{math.Float32bits(1), math.Float32bits(2), math.Float32bits(6)}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

// oldSliceBlock is the map-based slicer sliceBlock replaced, kept as the
// fuzz oracle. Its changes: a nil EID stays nil (the original indexed
// b.EID unconditionally), and the relabel map has no capacity hint.
func oldSliceBlock(b *Block, sel []int32) (*Block, []int32, error) {
	nDst := len(sel)
	if nDst == 0 {
		return nil, nil, fmt.Errorf("empty destination selection")
	}
	srcSel := make([]int32, nDst, nDst*2)
	localOf := map[int32]int32{}
	dstNID := make([]int32, nDst)
	for i, d := range sel {
		if d < 0 || int(d) >= b.NumDst {
			return nil, nil, fmt.Errorf("destination index %d out of range [0,%d)", d, b.NumDst)
		}
		srcSel[i] = d
		localOf[d] = int32(i)
		dstNID[i] = b.DstNID[d]
	}
	ptr := make([]int64, nDst+1)
	var srcLocal, eid []int32
	var ewt []float32
	for i, d := range sel {
		for p := b.Ptr[d]; p < b.Ptr[d+1]; p++ {
			s := b.SrcLocal[p]
			li, ok := localOf[s]
			if !ok {
				li = int32(len(srcSel))
				localOf[s] = li
				srcSel = append(srcSel, s)
			}
			srcLocal = append(srcLocal, li)
			if b.EID != nil {
				eid = append(eid, b.EID[p])
			}
			if b.EdgeWt != nil {
				ewt = append(ewt, b.EdgeWt[p])
			}
		}
		ptr[i+1] = int64(len(srcLocal))
	}
	srcNID := make([]int32, len(srcSel))
	for i, s := range srcSel {
		srcNID[i] = b.SrcNID[s]
	}
	return &Block{
		NumSrc:   len(srcSel),
		NumDst:   nDst,
		Ptr:      ptr,
		SrcLocal: srcLocal,
		EID:      eid,
		EdgeWt:   ewt,
		SrcNID:   srcNID,
		DstNID:   dstNID,
	}, srcSel, nil
}

// fuzzBlock builds a random block with nDst destinations and nExtra
// further sources: zero-degree destinations, self-loops (a destination
// drawing from its own source slot) and duplicate edges all occur. flags
// bit 0 attaches EIDs, bit 1 edge weights (arbitrary bit patterns).
func fuzzBlock(seed uint64, nDst, nExtra int, flags uint8) *Block {
	r := rng.New(seed)
	nSrc := nDst + nExtra
	b := &Block{NumSrc: nSrc, NumDst: nDst, Ptr: make([]int64, 1, nDst+1)}
	for d := 0; d < nDst; d++ {
		for k := r.Intn(6); k > 0; k-- {
			s := int32(r.Intn(nSrc))
			switch r.Intn(5) {
			case 0:
				s = int32(d)
			case 1:
				if n := len(b.SrcLocal); n > 0 {
					s = b.SrcLocal[n-1]
				}
			}
			b.SrcLocal = append(b.SrcLocal, s)
		}
		b.Ptr = append(b.Ptr, int64(len(b.SrcLocal)))
	}
	if flags&1 != 0 {
		b.EID = make([]int32, len(b.SrcLocal))
		for i := range b.EID {
			b.EID[i] = int32(r.Uint64())
		}
	}
	if flags&2 != 0 {
		b.EdgeWt = make([]float32, len(b.SrcLocal))
		for i := range b.EdgeWt {
			b.EdgeWt[i] = math.Float32frombits(uint32(r.Uint64()))
		}
	}
	b.SrcNID = r.Perm(nSrc + 64)[:nSrc]
	b.DstNID = append([]int32(nil), b.SrcNID[:nDst]...)
	return b
}

// sameSlice is element-wise equality that also tells nil from empty.
func sameSlice[T comparable](a, b []T) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func weightBits(w []float32) []uint32 {
	if w == nil {
		return nil
	}
	bits := make([]uint32, len(w))
	for i, x := range w {
		bits[i] = math.Float32bits(x)
	}
	return bits
}

// FuzzSliceBlock holds sliceBlock to the old map-based slicer on random
// blocks and selections: every array bitwise equal (nil where the oracle's
// is nil), and an empty or out-of-range selection an error from both.
// flags bit 2 draws selections with repeats, bit 3 lets them leave range.
func FuzzSliceBlock(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(4), uint8(3))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(12), uint8(9), uint8(1|8))
	f.Add(uint64(4), uint8(9), uint8(2), uint8(2|4))
	f.Fuzz(func(t *testing.T, seed uint64, nDst, nExtra, flags uint8) {
		b := fuzzBlock(seed, 1+int(nDst%24), int(nExtra%24), flags)
		r := rng.New(seed ^ 0x51ce)
		var sel []int32
		if flags&4 != 0 {
			sel = make([]int32, r.Intn(b.NumDst+3))
			for i := range sel {
				sel[i] = int32(r.Intn(b.NumDst))
			}
		} else {
			sel = r.Perm(b.NumDst)[:r.Intn(b.NumDst+1)]
		}
		valid := len(sel) > 0
		if flags&8 != 0 {
			for i := range sel {
				if r.Intn(4) == 0 {
					sel[i] = int32(r.Intn(b.NumDst+4)) - 2
				}
			}
		}
		for _, d := range sel {
			valid = valid && d >= 0 && int(d) < b.NumDst
		}
		want, wantSel, wantErr := oldSliceBlock(b, sel)
		got, gotSel, err := sliceBlock(b, sel, make([]int32, b.NumSrc))
		if (err == nil) != valid || (wantErr == nil) != valid {
			t.Fatalf("selection %v on %d destinations: err %v, oracle err %v, valid %v", sel, b.NumDst, err, wantErr, valid)
		}
		if !valid {
			return
		}
		if got.NumSrc != want.NumSrc || got.NumDst != want.NumDst ||
			!sameSlice(gotSel, wantSel) || !sameSlice(got.Ptr, want.Ptr) ||
			!sameSlice(got.SrcLocal, want.SrcLocal) || !sameSlice(got.EID, want.EID) ||
			!sameSlice(weightBits(got.EdgeWt), weightBits(want.EdgeWt)) ||
			!sameSlice(got.SrcNID, want.SrcNID) || !sameSlice(got.DstNID, want.DstNID) {
			t.Fatalf("selection %v: sliceBlock\n%+v %v\ndiffers from the oracle\n%+v %v", sel, got, gotSel, want, wantSel)
		}
	})
}
