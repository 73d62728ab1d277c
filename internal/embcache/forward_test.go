package embcache_test

import (
	"math"
	"testing"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// The forward tests run the cached path through core.BatchInferenceCached
// (the external package avoids the core→embcache import cycle) and pin the
// contract the modes advertise: exact is bitwise identical to off, and
// reuse at lag 0 is bitwise identical too — including across partial hits,
// where only the missed destinations are recomputed on a restricted
// sub-block.

func fwdData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t", Nodes: 800, AvgDegree: 10, FeatureDim: 24,
		NumClasses: 5, Homophily: 0.8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fwdSetup(t *testing.T, d *dataset.Dataset) *core.Setup {
	t.Helper()
	s, err := core.BuildSAGE(d, core.Options{Seed: 50, Hidden: 16, Fanouts: []int{4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleBlocks(t *testing.T, s *core.Setup, d *dataset.Dataset, seeds []int32) ([]*graph.Block, *tensor.Tensor) {
	t.Helper()
	blocks, err := s.Engine.Sampler.Sample(d.Graph, seeds)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.GatherFeatures(blocks[0].SrcNID)
	if err != nil {
		t.Fatal(err)
	}
	return blocks, x
}

func nodewiseBlocks(t *testing.T, nw *sample.NodeWise, d *dataset.Dataset, seeds []int32) ([]*graph.Block, *tensor.Tensor) {
	t.Helper()
	blocks, err := nw.Sample(d.Graph, seeds)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.GatherFeatures(blocks[0].SrcNID)
	if err != nil {
		t.Fatal(err)
	}
	return blocks, x
}

func tensorsBitwiseEqual(a, b *tensor.Tensor) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func newCache(t *testing.T, mode embcache.Mode, maxLag int, reg *obs.Registry) *embcache.Cache {
	t.Helper()
	c, err := embcache.New(embcache.Config{
		Mode: mode, BudgetBytes: 8 * device.MiB, MaxLag: maxLag, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExactModeBitwiseIdenticalToOff(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	blocks, x := sampleBlocks(t, s, d, []int32{3, 8, 120, 700})

	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, embcache.ModeExact, 0, obs.New(nil))
	// Twice: the first populates, the second verifies every cached row
	// bitwise against the recomputation.
	for pass := 0; pass < 2; pass++ {
		got, err := core.BatchInferenceCached(s.Model, blocks, x, c)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !tensorsBitwiseEqual(off, got) {
			t.Fatalf("pass %d: exact mode diverged from off", pass)
		}
	}
	if h, _ := c.Stats(); h != 0 {
		t.Fatalf("exact mode reported %d hits: compute must never be skipped", h)
	}
	if c.Dim() == 0 {
		t.Fatal("exact passes did not populate the cache")
	}
}

func TestReuseAllHitsBitwiseAtLagZero(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	blocks, x := sampleBlocks(t, s, d, []int32{3, 8, 120, 700})

	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, embcache.ModeReuse, 0, obs.New(nil))
	// First pass: cold, computes and populates.
	if _, err := core.BatchInferenceCached(s.Model, blocks, x, c); err != nil {
		t.Fatal(err)
	}
	// Second pass over the same blocks: every layer-1 destination hits,
	// and the spliced result is still bitwise the off-path logits.
	got, err := core.BatchInferenceCached(s.Model, blocks, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsBitwiseEqual(off, got) {
		t.Fatal("reuse mode at lag 0 diverged from off")
	}
	hits, _ := c.Stats()
	if hits != int64(blocks[0].NumDst) {
		t.Fatalf("warm pass hit %d of %d destinations", hits, blocks[0].NumDst)
	}
}

func TestReusePartialHitsBitwiseAtLagZero(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	reg := obs.New(nil)
	c := newCache(t, embcache.ModeReuse, 0, reg)

	// Warm the cache with one frontier, then run a different, overlapping
	// one: the overlap hits, the rest is computed on the restricted
	// sub-block, and the splice must still be bitwise exact. Cross-batch
	// row stability needs the node-wise sampler (the serving-path one,
	// whose draw for a node never depends on its batch); the training
	// Sampler's per-call streams make a node's neighborhood batch-
	// dependent, which is exactly why serving uses NodeWise.
	nw := sample.NewNodeWise([]int{4, 6}, 9)
	warm, wx := nodewiseBlocks(t, nw, d, []int32{3, 8, 120, 700})
	if _, err := core.BatchInferenceCached(s.Model, warm, wx, c); err != nil {
		t.Fatal(err)
	}
	blocks, x := nodewiseBlocks(t, nw, d, []int32{3, 8, 200, 305})
	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.BatchInferenceCached(s.Model, blocks, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsBitwiseEqual(off, got) {
		t.Fatal("partial-hit reuse diverged from off")
	}
	hits, misses := c.Stats()
	if hits == 0 {
		t.Fatal("overlapping frontiers produced no hits")
	}
	if misses == 0 {
		t.Fatal("expected a partial (not total) hit — pick less overlapping seeds")
	}
	// Only the missed destinations were computed on the second frontier.
	computed := reg.CounterValue("embcache.computed_rows")
	wantComputed := int64(warm[0].NumDst) + misses
	if computed != wantComputed {
		t.Fatalf("computed_rows = %d, want %d (full warm pass + misses only)", computed, wantComputed)
	}
}

func TestReuseStaleRowsRecomputeAfterInvalidate(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	blocks, x := sampleBlocks(t, s, d, []int32{5, 9, 42})
	c := newCache(t, embcache.ModeReuse, 1, obs.New(nil))
	if _, err := core.BatchInferenceCached(s.Model, blocks, x, c); err != nil {
		t.Fatal(err)
	}
	c.Invalidate()
	got, err := core.BatchInferenceCached(s.Model, blocks, x, c)
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsBitwiseEqual(off, got) {
		t.Fatal("post-invalidate forward diverged")
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Fatalf("%d hits served from an invalidated cache", hits)
	}
}

// TestStatsMatchCounters: Stats and the embcache.hits / embcache.misses
// counters are one count, equal after every forward — the cold first one
// included — in both modes. Exact mode looks every warm frontier up and
// misses all of it; reuse hits a repeated frontier in full.
func TestStatsMatchCounters(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	nw := sample.NewNodeWise([]int{4, 6}, 9)
	for _, mode := range []embcache.Mode{embcache.ModeExact, embcache.ModeReuse} {
		reg := obs.New(nil)
		c := newCache(t, mode, 0, reg)
		var frontier int64
		for pass, seeds := range [][]int32{{3, 8, 120, 700}, {3, 8, 120, 700}, {3, 8, 200, 305}} {
			blocks, x := nodewiseBlocks(t, nw, d, seeds)
			if _, err := core.BatchInferenceCached(s.Model, blocks, x, c); err != nil {
				t.Fatal(err)
			}
			hits, misses := c.Stats()
			ch, cm := reg.CounterValue("embcache.hits"), reg.CounterValue("embcache.misses")
			if hits != ch || misses != cm {
				t.Fatalf("%v pass %d: Stats %d/%d, counters %d/%d", mode, pass, hits, misses, ch, cm)
			}
			if pass == 0 {
				frontier = int64(blocks[0].NumDst)
			}
		}
		hits, misses := c.Stats()
		if mode == embcache.ModeExact && (hits != 0 || misses < frontier) {
			t.Fatalf("exact: %d hits / %d misses, want 0 / at least %d", hits, misses, frontier)
		}
		if mode == embcache.ModeReuse && hits < frontier {
			t.Fatalf("reuse: %d hits, want the repeated frontier's %d at least", hits, frontier)
		}
	}
}
