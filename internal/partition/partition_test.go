package partition

import (
	"testing"
	"testing/quick"

	"betty/internal/rng"
)

// ring builds a cycle of n unit-weight nodes with unit edges.
func ring(t *testing.T, n int) *WeightedGraph {
	t.Helper()
	u := make([]int32, n)
	v := make([]int32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = int32(i)
		v[i] = int32((i + 1) % n)
		w[i] = 1
	}
	g, err := NewWeightedGraph(n, u, v, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// clusters builds c dense clusters of size s with sparse inter-cluster
// links, a graph where a good partitioner should cut only the links.
func clusters(t *testing.T, c, s int, seed uint64) *WeightedGraph {
	t.Helper()
	r := rng.New(seed)
	var u, v []int32
	var w []float32
	n := c * s
	for ci := 0; ci < c; ci++ {
		base := ci * s
		// dense intra-cluster edges
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if r.Float64() < 0.6 {
					u = append(u, int32(base+i))
					v = append(v, int32(base+j))
					w = append(w, 10)
				}
			}
		}
		// one weak link to the next cluster
		next := (ci + 1) % c * s
		u = append(u, int32(base))
		v = append(v, int32(next))
		w = append(w, 1)
	}
	g, err := NewWeightedGraph(n, u, v, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkValidPartition(t *testing.T, parts []int32, n, k int) {
	t.Helper()
	if len(parts) != n {
		t.Fatalf("parts length %d, want %d", len(parts), n)
	}
	sizes := Sizes(parts, k)
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d is empty: sizes=%v", p, sizes)
		}
	}
	for i, p := range parts {
		if p < 0 || int(p) >= k {
			t.Fatalf("node %d in invalid part %d", i, p)
		}
	}
}

func TestNewWeightedGraphSymmetrizes(t *testing.T) {
	g, err := NewWeightedGraph(3, []int32{0, 1, 0}, []int32{1, 0, 2}, []float32{2, 3, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) appears twice -> weight 5, seen from both sides
	adj, ewt := g.Neighbors(0)
	found := false
	for i, u := range adj {
		if u == 1 {
			found = true
			if ewt[i] != 5 {
				t.Fatalf("merged weight %v, want 5", ewt[i])
			}
		}
	}
	if !found {
		t.Fatal("edge 0-1 missing")
	}
	adj1, _ := g.Neighbors(1)
	if len(adj1) != 1 || adj1[0] != 0 {
		t.Fatalf("asymmetric adjacency: %v", adj1)
	}
}

func TestNewWeightedGraphDropsSelfLoops(t *testing.T) {
	g, err := NewWeightedGraph(2, []int32{0, 0}, []int32{0, 1}, []float32{9, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj, _ := g.Neighbors(0)
	if len(adj) != 1 || adj[0] != 1 {
		t.Fatalf("self loop survived: %v", adj)
	}
}

func TestNewWeightedGraphValidation(t *testing.T) {
	if _, err := NewWeightedGraph(2, []int32{0}, []int32{1, 0}, []float32{1}, nil); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := NewWeightedGraph(2, []int32{5}, []int32{0}, []float32{1}, nil); err == nil {
		t.Fatal("out-of-range node not rejected")
	}
	if _, err := NewWeightedGraph(2, nil, nil, nil, []float32{1}); err == nil {
		t.Fatal("bad node-weight length not rejected")
	}
}

func TestValidateK(t *testing.T) {
	g := ring(t, 4)
	p := &Metis{}
	if _, err := p.Partition(g, 0); err == nil {
		t.Fatal("metis accepted k=0")
	}
	if _, err := p.Partition(g, 9); err == nil {
		t.Fatal("metis accepted k > n")
	}
}

func TestMetisSinglePart(t *testing.T) {
	g := ring(t, 12)
	parts, err := (&Metis{}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
}

func TestMetisRingBisection(t *testing.T) {
	g := ring(t, 64)
	parts, err := (&Metis{Seed: 3}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPartition(t, parts, 64, 2)
	cut := EdgeCut(g, parts)
	// optimal ring bisection cuts exactly 2 edges; allow small slack
	if cut > 6 {
		t.Fatalf("ring cut %v too large (optimal 2)", cut)
	}
	if b := Balance(g, parts, 2); b > 1.15 {
		t.Fatalf("ring bisection imbalanced: %v", b)
	}
}

func TestMetisFindsClusters(t *testing.T) {
	g := clusters(t, 4, 20, 1)
	parts, err := (&Metis{Seed: 5}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPartition(t, parts, 80, 4)
	cut := EdgeCut(g, parts)
	// the 4 weak links weigh 1 each; cutting through a cluster costs 10+
	if cut > 30 {
		t.Fatalf("cluster cut %v; partitioner failed to find community structure", cut)
	}
}

func TestMetisBeatsRandomOnCut(t *testing.T) {
	g := clusters(t, 8, 16, 2)
	mparts, err := (&Metis{Seed: 1}).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// An even random assignment: the node at position pos of a seeded
	// permutation goes to part pos*k/n.
	rparts := make([]int32, g.N)
	for pos, node := range rng.New(1).Perm(g.N) {
		rparts[node] = int32(pos * 8 / g.N)
	}
	mcut, rcut := EdgeCut(g, mparts), EdgeCut(g, rparts)
	if mcut >= rcut {
		t.Fatalf("metis cut %v not better than random cut %v", mcut, rcut)
	}
}

func TestMetisRefinementHelps(t *testing.T) {
	g := clusters(t, 6, 24, 3)
	with, err := (&Metis{Seed: 9}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	without, err := (&Metis{Seed: 9, DisableRefinement: true}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if EdgeCut(g, with) > EdgeCut(g, without) {
		t.Fatalf("refinement made the cut worse: %v vs %v",
			EdgeCut(g, with), EdgeCut(g, without))
	}
}

func TestMetisRespectsBalance(t *testing.T) {
	r := rng.New(11)
	// irregular random graph
	n := 500
	var u, v []int32
	var w []float32
	for i := 0; i < 3000; i++ {
		u = append(u, r.Int31n(int32(n)))
		v = append(v, r.Int31n(int32(n)))
		w = append(w, float32(1+r.Intn(5)))
	}
	g, err := NewWeightedGraph(n, u, v, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		parts, err := (&Metis{Seed: 13}).Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		checkValidPartition(t, parts, n, k)
		if b := Balance(g, parts, k); b > 1.35 {
			t.Fatalf("k=%d balance %v too loose", k, b)
		}
	}
}

func TestMetisDeterminism(t *testing.T) {
	g := clusters(t, 4, 15, 4)
	a, _ := (&Metis{Seed: 21}).Partition(g, 4)
	b, _ := (&Metis{Seed: 21}).Partition(g, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("metis not deterministic for fixed seed")
		}
	}
}

// One Metis partitioning one graph at several k reuses its coarsening
// (every k <= 8 stops at 120 nodes, k = 9 at 135) and must return exactly
// what a fresh Metis returns for each k: coarsening is k-independent and
// every partition resumes from the RNG state it ended in.
func TestMetisCoarseningReuseIsBitwise(t *testing.T) {
	g := clusters(t, 12, 40, 9) // 480 nodes: several coarsening levels
	for _, variant := range []Metis{{Seed: 5}, {Seed: 5, RandomMatching: true}, {Seed: 6, DisableRefinement: true}} {
		shared := variant
		for _, k := range []int{2, 3, 4, 8, 9, 3, 16, 2} {
			fresh := variant
			want, err := fresh.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shared.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh.last.levels) == 0 {
				t.Fatal("graph never coarsened; the test exercises nothing")
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: node %d in part %d with a reused coarsening, %d fresh", variant.String(), k, i, got[i], want[i])
				}
			}
		}
	}
	// A different graph must not be served from the memo.
	m := &Metis{Seed: 5}
	if _, err := m.Partition(g, 4); err != nil {
		t.Fatal(err)
	}
	other := clusters(t, 12, 40, 10)
	got, _ := m.Partition(other, 4)
	want, _ := (&Metis{Seed: 5}).Partition(other, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("coarsening of one graph reused for another")
		}
	}
}

// Property: Metis partitions are structurally valid for random graphs and
// random k.
func TestAllPartitionersProduceValidParts(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(120)
		m := r.Intn(5 * n)
		u := make([]int32, m)
		v := make([]int32, m)
		w := make([]float32, m)
		for i := range u {
			u[i] = r.Int31n(int32(n))
			v[i] = r.Int31n(int32(n))
			w[i] = 1
		}
		g, err := NewWeightedGraph(n, u, v, w, nil)
		if err != nil {
			return false
		}
		k := 2 + r.Intn(6)
		if k > n {
			k = n
		}
		parts, err := (&Metis{Seed: seed}).Partition(g, k)
		if err != nil || len(parts) != n {
			return false
		}
		total := 0
		for _, s := range Sizes(parts, k) {
			if s == 0 {
				return false
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCutAndBalanceMetrics(t *testing.T) {
	g := ring(t, 4) // cycle 0-1-2-3-0, unit weights
	parts := []int32{0, 0, 1, 1}
	if cut := EdgeCut(g, parts); cut != 2 {
		t.Fatalf("EdgeCut = %v, want 2", cut)
	}
	if b := Balance(g, parts, 2); b != 1 {
		t.Fatalf("Balance = %v, want 1", b)
	}
	parts = []int32{0, 0, 0, 1}
	if b := Balance(g, parts, 2); b != 1.5 {
		t.Fatalf("Balance = %v, want 1.5", b)
	}
}

func TestNodeWeightsRespected(t *testing.T) {
	// two heavy nodes and many light ones; heavy nodes should separate
	n := 10
	nw := make([]float32, n)
	for i := range nw {
		nw[i] = 1
	}
	nw[0], nw[1] = 8, 8
	var u, v []int32
	var w []float32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u = append(u, int32(i))
			v = append(v, int32(j))
			w = append(w, 1)
		}
	}
	g, err := NewWeightedGraph(n, u, v, w, nw)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&Metis{Seed: 2}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pw := PartWeights(g, parts, 2)
	// total 24, ideal 12; heavy nodes together would make 17+ vs 7
	if pw[0] > 16 || pw[1] > 16 {
		t.Fatalf("node weights ignored: part weights %v", pw)
	}
}
