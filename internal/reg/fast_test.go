package reg

import (
	"math"
	"testing"
	"testing/quick"

	"betty/internal/graph"
	"betty/internal/parallel"
	"betty/internal/rng"
)

// regEqual compares two weighted graphs edge-for-edge (order-insensitive).
func regEqual(t *testing.T, a, b interface {
	Neighbors(v int32) ([]int32, []float32)
}, n int) bool {
	t.Helper()
	for v := int32(0); int(v) < n; v++ {
		adjA, wA := a.Neighbors(v)
		adjB, wB := b.Neighbors(v)
		if len(adjA) != len(adjB) {
			return false
		}
		mA := map[int32]float32{}
		for i, u := range adjA {
			mA[u] = wA[i]
		}
		for i, u := range adjB {
			if math.Float32bits(mA[u]) != math.Float32bits(wB[i]) {
				return false
			}
		}
	}
	return true
}

func TestFastMatchesReferenceOnExample(t *testing.T) {
	b := makeBlock(t, []int32{1, 8, 3}, [][]int32{
		{3, 5, 6, 7},
		{5, 6, 9},
		{5, 9, 7},
	})
	ref, err := BuildREG(b)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := BuildREGFast(b)
	if err != nil {
		t.Fatal(err)
	}
	if ref.N != fast.N {
		t.Fatalf("node counts differ: %d vs %d", ref.N, fast.N)
	}
	if !regEqual(t, ref, fast, ref.N) {
		t.Fatal("fast REG differs from the SpGEMM reference")
	}
}

// Property: fast construction equals the SpGEMM reference on random blocks,
// including blocks with parallel edges and outputs that feed each other.
func TestFastMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nDst := 2 + r.Intn(30)
		pool := int32(nDst) + r.Int31n(40)
		neigh := make([][]int32, nDst)
		for i := range neigh {
			deg := r.Intn(8)
			for j := 0; j < deg; j++ {
				// draw from a space overlapping the outputs, with repeats
				neigh[i] = append(neigh[i], r.Int31n(pool))
			}
		}
		dst := make([]int32, nDst)
		for i := range dst {
			dst[i] = int32(i)
		}
		b := makeBlockQuiet(dst, neigh)
		if b.Validate() != nil {
			return false
		}
		ref, err := BuildREG(b)
		if err != nil {
			return false
		}
		fast, err := BuildREGFast(b)
		if err != nil {
			return false
		}
		return ref.N == fast.N && regEqual(t, ref, fast, ref.N)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// makeBlockQuiet is makeBlock without the testing.T plumbing (for quick).
func makeBlockQuiet(dstNIDs []int32, neigh [][]int32) *graph.Block {
	local := make(map[int32]int32, len(dstNIDs)*2)
	srcNID := append([]int32(nil), dstNIDs...)
	for i, v := range dstNIDs {
		local[v] = int32(i)
	}
	b := &graph.Block{
		NumDst: len(dstNIDs),
		DstNID: append([]int32(nil), dstNIDs...),
		Ptr:    make([]int64, 1, len(dstNIDs)+1),
	}
	for _, ns := range neigh {
		for _, u := range ns {
			li, ok := local[u]
			if !ok {
				li = int32(len(srcNID))
				local[u] = li
				srcNID = append(srcNID, u)
			}
			b.SrcLocal = append(b.SrcLocal, li)
			b.EID = append(b.EID, -1)
		}
		b.Ptr = append(b.Ptr, int64(len(b.SrcLocal)))
	}
	b.SrcNID = srcNID
	b.NumSrc = len(srcNID)
	return b
}

func TestFastEmptyNeighborhoods(t *testing.T) {
	b := makeBlock(t, []int32{0, 1}, [][]int32{{}, {}})
	fast, err := BuildREGFast(b)
	if err != nil {
		t.Fatal(err)
	}
	if fast.N != 2 || len(fast.Adj) != 0 {
		t.Fatalf("expected an empty REG, got %d edges", len(fast.Adj))
	}
}

// BuildREGFast must produce a bitwise-identical WeightedGraph (same CSR
// arrays, same float bits) for every worker count: the shard structure is
// fixed by constants, and weights accumulate in source order regardless of
// how many workers execute the shards. The block is sized well past
// rowShardGrain so the row-wise Gram genuinely runs multi-shard.
func TestFastParallelDeterminism(t *testing.T) {
	r := rng.New(3)
	nDst := 3*rowShardGrain - 100
	pool := int32(6000)
	neigh := make([][]int32, nDst)
	for i := range neigh {
		deg := 2 + r.Intn(12)
		for j := 0; j < deg; j++ {
			neigh[i] = append(neigh[i], r.Int31n(pool))
		}
	}
	dst := make([]int32, nDst)
	for i := range dst {
		dst[i] = int32(i)
	}
	b := makeBlockQuiet(dst, neigh)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}

	defer parallel.SetWorkers(parallel.SetWorkers(1))
	want, err := BuildREGFast(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		parallel.SetWorkers(w)
		got, err := BuildREGFast(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("workers=%d: REG differs from the serial build", w)
		}
	}
}
