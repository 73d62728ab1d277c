package sample

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"betty/internal/graph"
	"betty/internal/rng"
)

// star builds a graph where node 0 has in-edges from nodes 1..n-1.
func star(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	src := make([]int32, 0, n-1)
	dst := make([]int32, 0, n-1)
	for v := int32(1); v < n; v++ {
		src = append(src, v)
		dst = append(dst, 0)
	}
	g, err := graph.FromEdges(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph builds a reproducible random directed graph.
func randomGraph(t *testing.T, seed uint64, n int32, m int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	src := make([]int32, m)
	dst := make([]int32, m)
	for i := range src {
		src[i] = r.Int31n(n)
		dst[i] = r.Int31n(n)
	}
	g, err := graph.FromEdges(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSampleFanoutBound(t *testing.T) {
	g := star(t, 50)
	s := New([]int{10}, 1)
	blocks, err := s.Sample(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("expected 1 block, got %d", len(blocks))
	}
	b := blocks[0]
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.InDegree(0) != 10 {
		t.Fatalf("fanout not respected: degree %d", b.InDegree(0))
	}
	// sampled without replacement: all sources distinct
	seen := map[int32]bool{}
	for _, s := range b.SrcLocal {
		if seen[s] {
			t.Fatal("duplicate neighbor without replacement")
		}
		seen[s] = true
	}
}

func TestSampleSmallDegreeTakesAll(t *testing.T) {
	g := star(t, 5)
	s := New([]int{100}, 1)
	blocks, err := s.Sample(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0].InDegree(0) != 4 {
		t.Fatalf("should take all 4 neighbors, got %d", blocks[0].InDegree(0))
	}
}

// Persisted macrobatches are verified against ConfigKey, so the key of a
// given configuration must never change between builds.
func TestConfigKeyPinned(t *testing.T) {
	if got, want := New([]int{5, 10}, 1).ConfigKey(), uint64(0x29b64e4c66b198d1); got != want {
		t.Fatalf("ConfigKey = %#x, want %#x", got, want)
	}
}

func TestMultiLayerStructure(t *testing.T) {
	g := randomGraph(t, 3, 200, 2000)
	s := New([]int{5, 3}, 7)
	seeds := []int32{0, 1, 2, 3, 4}
	blocks, err := s.Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("want 2 blocks, got %d", len(blocks))
	}
	inner, outer := blocks[0], blocks[1]
	if err := inner.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := outer.Validate(); err != nil {
		t.Fatal(err)
	}
	// output block's destinations are exactly the seeds
	for i, v := range seeds {
		if outer.DstNID[i] != v {
			t.Fatalf("seed %d lost", v)
		}
	}
	// chaining: inner's destinations are outer's sources
	if inner.NumDst != outer.NumSrc {
		t.Fatalf("layer chaining broken: %d vs %d", inner.NumDst, outer.NumSrc)
	}
	for i := range inner.DstNID {
		if inner.DstNID[i] != outer.SrcNID[i] {
			t.Fatal("frontier NIDs do not chain")
		}
	}
	// fanout bounds per layer
	for d := 0; d < outer.NumDst; d++ {
		if outer.InDegree(d) > 3 {
			t.Fatalf("outer fanout exceeded: %d", outer.InDegree(d))
		}
	}
	for d := 0; d < inner.NumDst; d++ {
		if inner.InDegree(d) > 5 {
			t.Fatalf("inner fanout exceeded: %d", inner.InDegree(d))
		}
	}
}

// Property: every sampled edge exists in the raw graph with matching
// endpoints and edge ID, for random graphs/seeds/fanouts.
func TestSampledEdgesAreReal(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := int32(10 + r.Intn(100))
		g := randomGraph(t, seed^1, n, 20*int(n))
		rawSrc, rawDst := g.Edges()
		seeds := []int32{r.Int31n(n), r.Int31n(n)}
		s := New([]int{1 + r.Intn(8), 1 + r.Intn(8)}, seed^2)
		blocks, err := s.Sample(g, seeds)
		if err != nil {
			return false
		}
		for _, b := range blocks {
			if b.Validate() != nil {
				return false
			}
			for d := 0; d < b.NumDst; d++ {
				for p := b.Ptr[d]; p < b.Ptr[d+1]; p++ {
					e := b.EID[p]
					if rawSrc[e] != b.SrcNID[b.SrcLocal[p]] || rawDst[e] != b.DstNID[d] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDeterminism(t *testing.T) {
	g := randomGraph(t, 9, 300, 6000)
	seeds := []int32{1, 5, 9}
	a, err := New([]int{4, 4}, 42).Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]int{4, 4}, 42).Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for l := range a {
		if a[l].NumSrc != b[l].NumSrc || a[l].NumEdges() != b[l].NumEdges() {
			t.Fatal("same seed produced different samples")
		}
		for i := range a[l].SrcNID {
			if a[l].SrcNID[i] != b[l].SrcNID[i] {
				t.Fatal("same seed produced different source order")
			}
		}
	}
}

func TestSampleErrors(t *testing.T) {
	g := star(t, 5)
	if _, err := New(nil, 0).Sample(g, []int32{0}); err == nil {
		t.Fatal("empty fanouts not rejected")
	}
	if _, err := New([]int{3}, 0).Sample(g, []int32{99}); err == nil {
		t.Fatal("out-of-range seed not rejected")
	}
}

// Reservoir sampling must be (approximately) uniform: over many draws of
// 2-of-20 neighbors, every neighbor should appear close to 1/10 of the time.
func TestSamplingUniformity(t *testing.T) {
	g := star(t, 21) // node 0 has neighbors 1..20
	counts := make(map[int32]int)
	const trials = 8000
	for i := 0; i < trials; i++ {
		s := New([]int{2}, uint64(i))
		blocks, err := s.Sample(g, []int32{0})
		if err != nil {
			t.Fatal(err)
		}
		b := blocks[0]
		for p := b.Ptr[0]; p < b.Ptr[1]; p++ {
			counts[b.SrcNID[b.SrcLocal[p]]]++
		}
	}
	want := float64(2*trials) / 20
	for v := int32(1); v <= 20; v++ {
		got := float64(counts[v])
		if got < 0.8*want || got > 1.2*want {
			t.Fatalf("neighbor %d drawn %v times, want about %v", v, got, want)
		}
	}
}

// Weighted graphs propagate their edge weights into the sampled blocks.
func TestSampleCarriesEdgeWeights(t *testing.T) {
	g, err := graph.FromEdgesWeighted(3,
		[]int32{1, 2}, []int32{0, 0}, []float32{2.5, 7.5})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := New([]int{10}, 1).Sample(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	if b.EdgeWt == nil {
		t.Fatal("weighted graph produced unweighted block")
	}
	for p := range b.EdgeWt {
		want := g.EdgeWeight(b.EID[p])
		if math.Float32bits(b.EdgeWt[p]) != math.Float32bits(want) {
			t.Fatalf("edge %d weight %v, want %v", p, b.EdgeWt[p], want)
		}
	}
	// unweighted graphs keep EdgeWt nil (the fast path)
	g2 := star(t, 4)
	blocks2, err := New([]int{10}, 1).Sample(g2, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if blocks2[0].EdgeWt != nil {
		t.Fatal("unweighted graph produced weighted block")
	}
}

func TestZeroDegreeSeed(t *testing.T) {
	// node 1 in the star has no in-edges
	g := star(t, 5)
	blocks, err := New([]int{3}, 0).Sample(g, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	if b.NumEdges() != 0 || b.NumSrc != 1 || b.NumDst != 1 {
		t.Fatalf("zero-degree seed mishandled: %d edges %d src", b.NumEdges(), b.NumSrc)
	}
}

// blocksEqual compares two block lists structurally, field by field.
func blocksEqual(a, b []*graph.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		x, y := a[l], b[l]
		if x.NumSrc != y.NumSrc || x.NumDst != y.NumDst || x.NumEdges() != y.NumEdges() {
			return false
		}
		for i := range x.SrcNID {
			if x.SrcNID[i] != y.SrcNID[i] {
				return false
			}
		}
		for i := range x.SrcLocal {
			if x.SrcLocal[i] != y.SrcLocal[i] || x.EID[i] != y.EID[i] {
				return false
			}
		}
		for i := range x.Ptr {
			if x.Ptr[i] != y.Ptr[i] {
				return false
			}
		}
	}
	return true
}

// Regression: Sample must be order-independent. It used to advance a shared
// RNG across calls, so TestAccuracy/ValAccuracy results depended on how many
// Sample calls preceded them; now each call derives its streams from
// (seed, seeds[0], layer) alone.
func TestSampleOrderIndependent(t *testing.T) {
	g := randomGraph(t, 21, 400, 8000)
	seeds := []int32{7, 31, 99, 150}
	fresh, err := New([]int{4, 4}, 42).Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Burn an arbitrary number of unrelated calls on the same sampler, then
	// sample the same seeds: the result must match a fresh sampler's.
	s := New([]int{4, 4}, 42)
	for i := 0; i < 5; i++ {
		if _, err := s.Sample(g, []int32{int32(10 + i), int32(200 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := s.Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksEqual(fresh, after) {
		t.Fatal("Sample result depends on preceding calls")
	}
}

// Sample must be safe for concurrent callers (the chunk-parallel evaluator
// shares one sampler across goroutines); run with -race to verify. Every
// goroutine's result must equal the serial reference for its seeds.
func TestSampleConcurrentSafe(t *testing.T) {
	g := randomGraph(t, 22, 400, 8000)
	s := New([]int{5, 3}, 13)
	const callers = 8
	seedSets := make([][]int32, callers)
	refs := make([][]*graph.Block, callers)
	for i := range seedSets {
		seedSets[i] = []int32{int32(i * 37 % 400), int32((i*91 + 5) % 400), int32(i)}
		ref, err := New([]int{5, 3}, 13).Sample(g, seedSets[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := s.Sample(g, seedSets[i])
				if err != nil {
					errs[i] = err
					return
				}
				if !blocksEqual(got, refs[i]) {
					errs[i] = fmt.Errorf("caller %d: concurrent sample differs from serial reference", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// oldSample is the map-based sampler the dense node → local table
// replaced, kept as FuzzSample's oracle: one fresh map per layer, every
// new source appended in first-draw order, a repeated frontier node
// relabeled to its last slot.
func oldSample(s *Sampler, g *graph.Graph, seeds []int32, perNode bool) []*graph.Block {
	var callKey int32
	if len(seeds) > 0 {
		callKey = seeds[0]
	}
	blocks := make([]*graph.Block, len(s.fanouts))
	frontier := append([]int32(nil), seeds...)
	for l := len(s.fanouts) - 1; l >= 0; l-- {
		nDst := len(frontier)
		local := make(map[int32]int32, nDst*2)
		srcNID := append([]int32(nil), frontier...)
		for i, v := range frontier {
			local[v] = int32(i)
		}
		ptr := make([]int64, nDst+1)
		var srcLocal, eid []int32
		var r rng.RNG
		if !perNode {
			r = s.stream(callKey, l)
		}
		for d := 0; d < nDst; d++ {
			if perNode {
				r = s.stream(frontier[d], l)
			}
			neigh, eids := g.InNeighbors(frontier[d])
			chosenSrc, chosenEID := chooseNeighbors(&r, neigh, eids, s.fanouts[l], nil, nil)
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
			NumSrc: len(srcNID), NumDst: nDst, Ptr: ptr,
			SrcLocal: srcLocal, EID: eid, SrcNID: srcNID,
			DstNID: append([]int32(nil), frontier...),
		}
		if g.HasWeights() {
			b.EdgeWt = make([]float32, len(eid))
			for i, e := range eid {
				b.EdgeWt[i] = g.EdgeWeight(e)
			}
		}
		blocks[l] = b
		frontier = srcNID
	}
	return blocks
}

// sameInts is element-wise equality that also tells nil from empty.
func sameInts[T comparable](a, b []T) bool {
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

// FuzzSample holds Sampler and NodeWise to the map-based oracle on random
// graphs, seed sets and fanouts: every array of every block bitwise equal,
// nil where the oracle's is nil. A quarter of the nodes have no in-edge, so
// zero-degree seeds and frontier nodes occur. flags bit 0 weights the
// graph, bit 1 samples node-wise, bit 2 makes one layer FullNeighbors and
// bit 3 repeats seeds. Each input is sampled on two graphs of different
// sizes, so the pooled table arrives stale from the other graph.
func FuzzSample(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(7), uint8(2), uint8(1|8))
	f.Add(uint64(3), uint8(90), uint8(1), uint8(2|4))
	f.Add(uint64(4), uint8(25), uint8(3), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, nNodes, layers, flags uint8) {
		r := rng.New(seed)
		for _, n := range []int32{2 + int32(nNodes%120), 2 + int32(nNodes%120)/3} {
			m := r.Intn(8 * int(n))
			src, dst, w := make([]int32, m), make([]int32, m), make([]float32, m)
			for i := range src {
				src[i] = r.Int31n(n)
				dst[i] = r.Int31n(n - n/4)
				w[i] = math.Float32frombits(uint32(r.Uint64()))
			}
			if flags&1 == 0 {
				w = nil
			}
			g, err := graph.FromEdgesWeighted(n, src, dst, w)
			if err != nil {
				t.Fatal(err)
			}
			fanouts := make([]int, 1+int(layers%3))
			for l := range fanouts {
				fanouts[l] = 1 + r.Intn(6)
			}
			if flags&4 != 0 {
				fanouts[r.Intn(len(fanouts))] = FullNeighbors
			}
			seeds := make([]int32, 1+r.Intn(12))
			for i := range seeds {
				seeds[i] = r.Int31n(n)
				if flags&8 != 0 && i > 0 && r.Intn(3) == 0 {
					seeds[i] = seeds[r.Intn(i)]
				}
			}
			s := New(fanouts, seed^0x5a)
			perNode := flags&2 != 0
			var got []*graph.Block
			if perNode {
				got, err = (*NodeWise)(s).Sample(g, seeds)
			} else {
				got, err = s.Sample(g, seeds)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := oldSample(s, g, seeds, perNode)
			for l := range want {
				a, b := got[l], want[l]
				if a.NumSrc != b.NumSrc || a.NumDst != b.NumDst ||
					!sameInts(a.Ptr, b.Ptr) || !sameInts(a.SrcLocal, b.SrcLocal) ||
					!sameInts(a.EID, b.EID) || !sameInts(a.SrcNID, b.SrcNID) ||
					!sameInts(a.DstNID, b.DstNID) ||
					!sameInts(weightBits(a.EdgeWt), weightBits(b.EdgeWt)) {
					t.Fatalf("n=%d fanouts %v seeds %v layer %d: Sample\n%+v\ndiffers from the oracle\n%+v",
						n, fanouts, seeds, l, a, b)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("layer %d: %v", l, err)
				}
			}
		}
	})
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

// TestSampleSliceAllocs pins the allocations of one Sample plus one
// SliceBatch of half its outputs at the measured count. Sample allocates
// its block list and, per layer, five arrays and the Block; SliceBatch its
// relabel table, its block list and, per layer, six arrays and the Block.
// Neither builds a map, Sample's table comes from a pool and its random
// streams live on the stack.
func TestSampleSliceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	g := randomGraph(t, 5, 2000, 20000)
	s := New([]int{10, 25}, 1)
	seeds := []int32{3, 77, 150, 999, 1200, 1800, 4, 5}
	sel := []int32{0, 2, 4, 6}
	if _, err := s.Sample(g, seeds); err != nil {
		t.Fatal(err)
	}
	const want = 1 + 2*6 + 2 + 2*7
	got := testing.AllocsPerRun(50, func() {
		blocks, err := s.Sample(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.SliceBatch(blocks, sel); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Fatalf("Sample + SliceBatch made %v allocations, want %d", got, want)
	}
}
