package reg

import (
	"math"
	"reflect"
	"testing"

	"betty/internal/graph"
	"betty/internal/parallel"
	"betty/internal/partition"
	"betty/internal/rng"
)

// prePartitionBatch is PartitionBatch as it was before the prepare/partition
// split, kept as the reference: every call starts from the block, builds its
// graph (the REG through the SpGEMM path, so the reference does not depend on
// BuildREGFast either) and runs a fresh multilevel partitioner.
// refBetty is BettyBatch over the paper-literal BuildREG, so the prepared
// handle is also checked on the reference construction.
type refBetty struct{ BettyBatch }

func (p refBetty) Prepare(last *graph.Block) (*Prepared, error) {
	g, err := BuildREG(last)
	if err != nil {
		return nil, err
	}
	return metisSplit(g, &partition.Metis{Seed: p.Seed}), nil
}

func (p refBetty) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	return partitionBatch(p, last, k)
}

func prePartitionBatch(p BatchPartitioner, last *graph.Block, k int) ([][]int32, error) {
	if err := validateBatchK(last.NumDst, k); err != nil {
		return nil, err
	}
	n := last.NumDst
	groups := make([][]int32, k)
	var g *partition.WeightedGraph
	var m *partition.Metis
	if r, ok := p.(refBetty); ok {
		p = r.BettyBatch
	}
	switch p := p.(type) {
	case RangeBatch:
		for i := 0; i < n; i++ {
			groups[i*k/n] = append(groups[i*k/n], int32(i))
		}
		return groups, nil
	case RandomBatch:
		for pos, node := range rng.New(p.Seed).Perm(n) {
			groups[pos*k/n] = append(groups[pos*k/n], node)
		}
		return groups, nil
	case MetisBatch:
		var uu, vv []int32
		var ww []float32
		for d := 0; d < n; d++ {
			for q := last.Ptr[d]; q < last.Ptr[d+1]; q++ {
				if s := last.SrcLocal[q]; int(s) < n && int(s) != d {
					uu, vv, ww = append(uu, s), append(vv, int32(d)), append(ww, 1)
				}
			}
		}
		var err error
		if g, err = partition.NewWeightedGraph(n, uu, vv, ww, nil); err != nil {
			return nil, err
		}
		m = &partition.Metis{Seed: p.Seed}
	case BettyBatch:
		var err error
		if g, err = BuildREG(last); err != nil {
			return nil, err
		}
		m = &partition.Metis{Seed: p.Seed}
	}
	parts, err := m.Partition(g, k)
	if err != nil {
		return nil, err
	}
	for i, part := range parts {
		groups[part] = append(groups[part], int32(i))
	}
	return groups, nil
}

// degenerateBlocks are the shapes ROADMAP item 10 names, plus one block big
// enough (> 120 outputs) for the multilevel partitioner to coarsen.
func degenerateBlocks(t *testing.T) map[string]*graph.Block {
	t.Helper()
	r := rng.New(11)
	big := make([][]int32, 150)
	bigDst := make([]int32, len(big))
	for i := range big {
		bigDst[i] = int32(i)
		for j := r.Intn(7); j > 0; j-- {
			big[i] = append(big[i], r.Int31n(400))
		}
	}
	return map[string]*graph.Block{
		"one node":           makeBlock(t, []int32{7}, [][]int32{{3, 4}}),
		"one isolated node":  makeBlock(t, []int32{7}, [][]int32{{}}),
		"all isolated":       makeBlock(t, []int32{0, 1, 2, 3}, [][]int32{{}, {}, {}, {}}),
		"zero in-degree mix": makeBlock(t, []int32{0, 1, 2, 3, 4}, [][]int32{{9, 8}, {}, {9}, {}, {8, 7}}),
		"duplicate edges":    makeBlock(t, []int32{0, 1, 2}, [][]int32{{5, 5, 5, 6}, {5, 6, 6}, {6, 6, 5, 5}}),
		"self loops":         makeBlock(t, []int32{0, 1, 2, 3}, [][]int32{{0, 1}, {1, 1, 2}, {2, 0}, {3}}),
		"outputs as sources": makeBlock(t, []int32{4, 5, 6}, [][]int32{{5, 6}, {4, 6}, {4, 5}}),
		"random 150":         makeBlock(t, bigDst, big),
	}
}

// Prepare(last).Partition(k) — one handle serving every k — returns exactly
// the groups the pre-change PartitionBatch returned, for k = 1..NumDst on
// every degenerate shape and every partitioner, and so does PartitionBatch.
func TestPreparePartitionMatchesPreChange(t *testing.T) {
	partitioners := []BatchPartitioner{
		RangeBatch{}, RandomBatch{Seed: 3}, MetisBatch{Seed: 3},
		BettyBatch{Seed: 3}, BettyBatch{Seed: 4}, refBetty{BettyBatch{Seed: 3}},
	}
	for name, last := range degenerateBlocks(t) {
		for _, p := range partitioners {
			h, err := p.Prepare(last)
			if err != nil {
				t.Fatalf("%s/%s: Prepare: %v", name, p.Name(), err)
			}
			for k := 0; k <= last.NumDst+1; k++ {
				want, wantErr := prePartitionBatch(p, last, k)
				got, gotErr := h.Partition(k)
				if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s k=%d: prepared %v (%v), pre-change %v (%v)", name, p.Name(), k, got, gotErr, want, wantErr)
				}
				if wantErr == nil && (k < 1 || k > last.NumDst) {
					t.Fatalf("%s/%s: k=%d accepted", name, p.Name(), k)
				}
				// the one-shot form is the same code path on a fresh handle
				if k%7 == 1 || k == last.NumDst {
					one, err := p.PartitionBatch(last, k)
					if err != nil || !reflect.DeepEqual(one, want) {
						t.Fatalf("%s/%s k=%d: PartitionBatch %v (%v), pre-change %v", name, p.Name(), k, one, err, want)
					}
				}
			}
		}
	}
}

// bruteREG is the oracle: c_ij counted pair by pair from per-destination
// source multiplicities, with no sparse algebra and no sharing with either
// build.
func bruteREG(t *testing.T, b *graph.Block) *partition.WeightedGraph {
	t.Helper()
	mult := make([][]float32, b.NumDst) // mult[d][s] = parallel edges s -> d
	for d := range mult {
		mult[d] = make([]float32, b.NumSrc)
		for p := b.Ptr[d]; p < b.Ptr[d+1]; p++ {
			mult[d][b.SrcLocal[p]]++
		}
	}
	var u, v []int32
	var w []float32
	for i := 0; i < b.NumDst; i++ {
		for j := i + 1; j < b.NumDst; j++ {
			var c float32
			for s, m := range mult[i] { // ascending source order
				c += m * mult[j][s]
			}
			if c > 0 {
				u, v, w = append(u, int32(i)), append(v, int32(j)), append(w, c)
			}
		}
	}
	g, err := partition.NewWeightedGraph(b.NumDst, u, v, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameCSR compares two weighted graphs array for array, weights by bits.
func sameCSR(a, b *partition.WeightedGraph) bool {
	if a.N != b.N || !reflect.DeepEqual(a.Ptr, b.Ptr) || !reflect.DeepEqual(a.Adj, b.Adj) || len(a.EWt) != len(b.EWt) {
		return false
	}
	for i := range a.EWt {
		if math.Float32bits(a.EWt[i]) != math.Float32bits(b.EWt[i]) {
			return false
		}
	}
	return true
}

// checkREGOracle builds a random block with parallel edges, self-loops and
// outputs feeding outputs, and requires BuildREGFast — at one worker and at
// eight — and BuildREG to equal the brute-force count bit for bit.
func checkREGOracle(t *testing.T, seed uint64, nDst uint16, pool, maxDeg uint8) {
	t.Helper()
	r := rng.New(seed)
	n := 1 + int(nDst)%(rowShardGrain+100) // up to two row shards
	dst := make([]int32, n)
	neigh := make([][]int32, n)
	for i := range neigh {
		dst[i] = int32(i)
		for j := r.Intn(2 + int(maxDeg)%10); j > 0; j-- {
			neigh[i] = append(neigh[i], r.Int31n(1+int32(pool))) // small pool: repeats and output ids
		}
	}
	b := makeBlock(t, dst, neigh)
	want := bruteREG(t, b)
	ref, err := BuildREG(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(ref, want) {
		t.Fatal("BuildREG differs from the brute-force count")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, workers := range []int{1, 8} {
		parallel.SetWorkers(workers)
		fast, err := BuildREGFast(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(fast, want) {
			t.Fatalf("BuildREGFast at %d workers differs from the brute-force count", workers)
		}
	}
}

// TestREGOracle is ROADMAP item 10's REG half over a seeded sweep.
func TestREGOracle(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		checkREGOracle(t, seed, uint16(seed*7), uint8(seed*37), uint8(seed))
	}
	checkREGOracle(t, 99, rowShardGrain+60, 200, 9) // two row shards, dense sharing
}

// FuzzREGOracle is the same property over fuzzer-chosen shapes.
func FuzzREGOracle(f *testing.F) {
	f.Add(uint64(1), uint16(12), uint8(20), uint8(5))
	f.Add(uint64(2), uint16(rowShardGrain+20), uint8(255), uint8(9))
	f.Add(uint64(3), uint16(1), uint8(0), uint8(0))
	f.Fuzz(checkREGOracle)
}
