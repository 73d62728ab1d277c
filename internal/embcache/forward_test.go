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

// The forward tests build their models through core (the external package
// avoids the core→embcache import cycle) and pin the contract reuse mode
// advertises under fixed weights: it is bitwise identical to off (the
// plain core.BatchInference) — including across partial hits, where only
// the missed destinations are recomputed on a restricted sub-block.

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

func newCache(t *testing.T, mode embcache.Mode, reg *obs.Registry) *embcache.Cache {
	t.Helper()
	c, err := embcache.New(embcache.Config{Mode: mode, BudgetBytes: 8 * device.MiB, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cachedForward is core.BatchInference through cache c: the logits of one
// forward over blocks, cloned out of the tape.
func cachedForward(model any, blocks []*graph.Block, x *tensor.Tensor, c *embcache.Cache) (*tensor.Tensor, error) {
	tp := tensor.NewTape()
	defer tp.Release()
	h, err := embcache.Forward(tp, model, blocks, tensor.Leaf(x), c)
	if err != nil {
		return nil, err
	}
	return h.Value.Clone(), nil
}

func TestReuseAllHitsBitwiseAtLagZero(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	blocks, x := sampleBlocks(t, s, d, []int32{3, 8, 120, 700})

	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, embcache.ModeReuse, obs.New(nil))
	// First pass: cold, computes and populates.
	if _, err := cachedForward(s.Model, blocks, x, c); err != nil {
		t.Fatal(err)
	}
	// Second pass over the same blocks: every layer-1 destination hits,
	// and the spliced result is still bitwise the off-path logits.
	got, err := cachedForward(s.Model, blocks, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsBitwiseEqual(off, got) {
		t.Fatal("reuse mode diverged from off")
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
	c := newCache(t, embcache.ModeReuse, reg)

	// Warm the cache with one frontier, then run a different, overlapping
	// one: the overlap hits, the rest is computed on the restricted
	// sub-block, and the splice must still be bitwise exact. Cross-batch
	// row stability needs the node-wise sampler (the serving-path one,
	// whose draw for a node never depends on its batch); the training
	// Sampler's per-call streams make a node's neighborhood batch-
	// dependent, which is exactly why serving uses NodeWise.
	nw := sample.NewNodeWise([]int{4, 6}, 9)
	warm, wx := nodewiseBlocks(t, nw, d, []int32{3, 8, 120, 700})
	if _, err := cachedForward(s.Model, warm, wx, c); err != nil {
		t.Fatal(err)
	}
	blocks, x := nodewiseBlocks(t, nw, d, []int32{3, 8, 200, 305})
	off, err := core.BatchInference(s.Model, blocks, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cachedForward(s.Model, blocks, x, c)
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
	if misses == 0 || reg.CounterValue("embcache.partial_hits") != 1 {
		t.Fatal("expected a partial (not total) hit — pick less overlapping seeds")
	}
	// Only the missed destinations were computed on the second frontier.
	computed := reg.CounterValue("embcache.computed_rows")
	wantComputed := int64(warm[0].NumDst) + misses
	if computed != wantComputed {
		t.Fatalf("computed_rows = %d, want %d (full warm pass + misses only)", computed, wantComputed)
	}
}

// TestStatsMatchCounters: Stats and the embcache.hits / embcache.misses
// counters are one count, equal after every forward — the cold first one
// included — and a repeated frontier hits in full.
func TestStatsMatchCounters(t *testing.T) {
	d := fwdData(t)
	s := fwdSetup(t, d)
	nw := sample.NewNodeWise([]int{4, 6}, 9)
	reg := obs.New(nil)
	c := newCache(t, embcache.ModeReuse, reg)
	var frontier int64
	for pass, seeds := range [][]int32{{3, 8, 120, 700}, {3, 8, 120, 700}, {3, 8, 200, 305}} {
		blocks, x := nodewiseBlocks(t, nw, d, seeds)
		if _, err := cachedForward(s.Model, blocks, x, c); err != nil {
			t.Fatal(err)
		}
		hits, misses := c.Stats()
		ch, cm := reg.CounterValue("embcache.hits"), reg.CounterValue("embcache.misses")
		if hits != ch || misses != cm {
			t.Fatalf("pass %d: Stats %d/%d, counters %d/%d", pass, hits, misses, ch, cm)
		}
		if pass == 0 {
			frontier = int64(blocks[0].NumDst)
		}
	}
	if hits, _ := c.Stats(); hits < frontier {
		t.Fatalf("%d hits, want the repeated frontier's %d at least", hits, frontier)
	}
}
