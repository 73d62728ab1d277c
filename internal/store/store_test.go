package store

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"betty/internal/dataset"
	"betty/internal/obs"
)

// genDataset builds a small synthetic dataset for store tests.
func genDataset(t testing.TB, nodes, dim int, seed uint64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "store-test", Nodes: nodes, AvgDegree: 6, FeatureDim: dim,
		NumClasses: 5, Homophily: 0.8, PowerLawExp: 2.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// packTemp packs ds into a temp file and returns its path.
func packTemp(t testing.TB, ds *dataset.Dataset, shardRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.betty")
	if err := Pack(path, ds, PackConfig{ShardRows: shardRows}); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTemp(t testing.TB, path string) *Store {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestPackOpenRoundTrip(t *testing.T) {
	ds := genDataset(t, 500, 12, 1)
	st := openTemp(t, packTemp(t, ds, 64))

	if st.Name() != ds.Name || st.NumNodes() != int(ds.Graph.NumNodes()) || st.Dim() != ds.FeatureDim() {
		t.Fatalf("header mismatch: %s/%d/%d", st.Name(), st.NumNodes(), st.Dim())
	}
	if st.ShardRows() != 64 {
		t.Fatalf("shard rows = %d", st.ShardRows())
	}
	wantShards := (500 + 63) / 64
	if st.NumShards() != wantShards {
		t.Fatalf("shards = %d, want %d", st.NumShards(), wantShards)
	}

	// Every shard decodes to the exact feature rows it covers.
	row := 0
	for id := 0; id < st.NumShards(); id++ {
		sh, err := st.LoadShard(id)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Start != row {
			t.Fatalf("shard %d starts at %d, want %d", id, sh.Start, row)
		}
		for r := 0; r < sh.Rows; r++ {
			got := sh.Row(row + r)
			want := ds.Features.Row(row + r)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("shard %d row %d col %d: %v != %v", id, row+r, j, got[j], want[j])
				}
			}
		}
		row += sh.Rows
	}
	if row != 500 {
		t.Fatalf("shards cover %d rows, want 500", row)
	}

	// The graph round-trips edge-exactly.
	g, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	as, ad := ds.Graph.Edges()
	bs, bd := g.Edges()
	if len(as) != len(bs) {
		t.Fatalf("edge count %d != %d", len(bs), len(as))
	}
	for i := range as {
		if as[i] != bs[i] || ad[i] != bd[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestShardRangeErrors(t *testing.T) {
	ds := genDataset(t, 200, 8, 2)
	st := openTemp(t, packTemp(t, ds, 64))
	for _, id := range []int{-1, st.NumShards()} {
		if _, err := st.LoadShard(id); err == nil {
			t.Fatalf("shard %d accepted", id)
		}
	}
}

// The disk-backed Dataset must be bitwise-indistinguishable from the
// in-RAM one: labels, splits, and every gathered feature row.
func TestDatasetEquivalence(t *testing.T) {
	ds := genDataset(t, 700, 10, 3)
	st := openTemp(t, packTemp(t, ds, 128))
	cache, err := NewCache(st, st.MaxShardBytes()*2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Dataset(cache)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClasses != ds.NumClasses || len(got.Labels) != len(ds.Labels) {
		t.Fatal("labels/classes mismatch")
	}
	for i := range ds.Labels {
		if got.Labels[i] != ds.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
	}
	for _, pair := range [][2][]int32{
		{got.TrainIdx, ds.TrainIdx}, {got.ValIdx, ds.ValIdx}, {got.TestIdx, ds.TestIdx},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatal("split size mismatch")
		}
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Fatal("split content mismatch")
			}
		}
	}
	// Gather every node in a scrambled order through the cache.
	nids := make([]int32, 700)
	for i := range nids {
		nids[i] = int32((i * 37) % 700)
	}
	f, err := got.GatherFeatures(nids)
	if err != nil {
		t.Fatal(err)
	}
	for i, nid := range nids {
		for j := 0; j < f.Cols(); j++ {
			if math.Float32bits(f.At(i, j)) != math.Float32bits(ds.Features.At(int(nid), j)) {
				t.Fatalf("gathered row %d col %d mismatch", nid, j)
			}
		}
	}
	if cache.PeakBytes() > cache.Budget() {
		t.Fatalf("peak %d exceeds budget %d", cache.PeakBytes(), cache.Budget())
	}
}

func TestDatasetRequiresCache(t *testing.T) {
	ds := genDataset(t, 200, 8, 4)
	st := openTemp(t, packTemp(t, ds, 64))
	if _, err := st.Dataset(nil); err == nil {
		t.Fatal("nil cache accepted")
	}
	other := openTemp(t, packTemp(t, ds, 64))
	cache, err := NewCache(other, other.MaxShardBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Dataset(cache); err == nil {
		t.Fatal("cache for a different store accepted")
	}
}

func TestNewCacheBudgetErrors(t *testing.T) {
	ds := genDataset(t, 300, 16, 5)
	st := openTemp(t, packTemp(t, ds, 128))
	if _, err := NewCache(st, 0, nil); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewCache(st, st.MaxShardBytes()-1, nil); err == nil {
		t.Fatal("budget below one shard accepted")
	} else if !strings.Contains(err.Error(), EnvShardRows) {
		t.Fatalf("sub-shard budget error %q should suggest %s", err, EnvShardRows)
	}
	c, err := NewCache(st, st.MaxShardBytes(), obs.New(obs.NewFakeClock(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget() != st.MaxShardBytes() {
		t.Fatalf("budget = %d", c.Budget())
	}
}

func TestParseShardRows(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"", 0, true},
		{"128", 128, true},
		{"0", 0, false},
		{"-1", 0, false},
		{"x", 0, false},
	}
	for _, c := range cases {
		got, err := ParseShardRows(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("ParseShardRows(%q) = %d, %v", c.in, got, err)
		}
		if err != nil && !strings.Contains(err.Error(), EnvShardRows) {
			t.Fatalf("error %q does not name %s", err, EnvShardRows)
		}
	}
}
