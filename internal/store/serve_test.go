package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"betty/internal/dataset"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/sample"
	"betty/internal/serve"
	"betty/internal/tensor"
)

// serveFixture is a 4 096-node dataset packed into 32 shards of 128 rows,
// with an untrained model to serve it.
type serveFixture struct {
	ds    *dataset.Dataset
	path  string
	st    *Store
	model any
}

func newServeFixture(t *testing.T) *serveFixture {
	t.Helper()
	ds := genDataset(t, 4096, 48, 41)
	path := packTemp(t, ds, 128)
	return &serveFixture{ds: ds, path: path, st: openTemp(t, path), model: buildSAGE(t, ds, 9).Model}
}

// disk returns the fixture's dataset read through a fresh cache that holds
// three shards, with the registry counting the cache's traffic.
func (f *serveFixture) disk(t *testing.T) (*dataset.Dataset, *obs.Registry) {
	t.Helper()
	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := NewCache(f.st, 3*f.st.MaxShardBytes(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.st.Dataset(cache)
	if err != nil {
		t.Fatal(err)
	}
	return ds, reg
}

func serveConfig(capacity int64) serve.Config {
	cfg := serve.Defaults()
	cfg.Fanouts = []int{3, 3}
	cfg.Seed = 9
	cfg.CapacityBytes = capacity
	return cfg
}

// predictOnce serves nodes as one request from a fresh server.
func predictOnce(t *testing.T, ds *dataset.Dataset, model any, cfg serve.Config, nodes []int32) [][]float32 {
	t.Helper()
	srv, err := serve.New(ds, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	out, err := srv.Predict(nodes, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameScores(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// Serving pins its shards as an exact count: one 64-node request through a
// cache that holds 3 of 32 shards pins each shard its input frontier
// touches exactly once, at every K. The frontier is staged with one gather
// in shard order and every micro-batch gathers from the stage; fetching row
// by row instead pins a shard per frontier row. Scores stay bitwise equal
// to in-RAM serving.
func TestServeOneShardPassPerBatch(t *testing.T) {
	f := newServeFixture(t)
	nodes := make([]int32, 64)
	for i := range nodes {
		nodes[i] = int32((i * 61) % 4096)
	}
	// Node-wise sampling is a pure function of (seed, node), so this is the
	// served batch's input frontier at every K.
	cfg := serveConfig(1)
	blocks, err := sample.NewNodeWise(cfg.Fanouts, cfg.Seed).Sample(f.ds.Graph, nodes)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int32]bool{}
	for _, nid := range blocks[0].SrcNID {
		shards[nid/int32(f.st.ShardRows())] = true
	}
	touched := int64(len(shards))
	if touched <= 8 {
		t.Fatalf("frontier touches %d shards; the count below needs more than the cache holds", touched)
	}
	// Planner budgets that force K = 1, 4 and 8 micro-batches.
	for _, c := range []struct {
		k        int
		capacity int64
	}{{1, 256 << 20}, {4, 70_000}, {8, 40_000}} {
		cfg := serveConfig(c.capacity)
		want := predictOnce(t, f.ds, f.model, cfg, nodes)
		disk, reg := f.disk(t)
		var log bytes.Buffer
		cfg.BatchLog = &log
		got := predictOnce(t, disk, f.model, cfg, nodes)
		if !bytes.Contains(log.Bytes(), []byte(fmt.Sprintf(`"k":%d,`, c.k))) {
			t.Fatalf("capacity %d: batch log %q, want K=%d", c.capacity, log.String(), c.k)
		}
		loads := reg.CounterValue("store.shard_misses")
		if pins := loads + reg.CounterValue("store.shard_hits"); pins != touched || loads != touched {
			t.Fatalf("K=%d: %d shard pins, %d loads; want %d of each, one per shard the frontier touches",
				c.k, pins, loads, touched)
		}
		if !sameScores(got, want) {
			t.Fatalf("K=%d: out-of-core scores differ from in-RAM serving", c.k)
		}
	}
}

// A shard that fails its checksum while a served batch is being staged
// fails every request of the batch, naming the shard, and leaves nothing
// behind: no shard stays pinned and the stage's scratch is back in the
// pool. Once the shard reads cleanly again the same server answers like
// in-RAM serving.
func TestServeStageFailureLeavesNothingBehind(t *testing.T) {
	f := newServeFixture(t)
	// Every request holds node 0, so every batch's frontier touches shard 0.
	const victim = 0
	reqs := [][]int32{{0, 700}, {0, 1500, 2300}, {0, 3100}}
	cfg := serveConfig(256 << 20)
	want := predictOnce(t, f.ds, f.model, cfg, reqs[1])

	dim := f.ds.FeatureDim()
	shardRows := f.st.ShardRows()
	payload, err := EncodeShard(shardRows, dim, f.ds.Features.Data[victim*shardRows*dim:(victim+1)*shardRows*dim])
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(file, payload)
	if off < 0 {
		t.Fatalf("shard %d payload not found in %s", victim, f.path)
	}
	off += len(payload) / 2
	writeByte := func(b byte) {
		fh, err := os.OpenFile(f.path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		if _, err := fh.WriteAt([]byte{b}, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	writeByte(file[off] ^ 0x40)

	disk, reg := f.disk(t)
	srv, err := serve.New(disk, f.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start() // drains the pool, zeroing its counters
	defer srv.Close()
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, nodes := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.Predict(nodes, 10*time.Second)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("feature shard %d ", victim)) {
			t.Fatalf("request %d over a corrupt shard %d: err = %v", i, victim, err)
		}
	}
	if pinned, ok := reg.GaugeValue("store.pinned_shards"); !ok || pinned != 0 {
		t.Fatalf("%d shards still pinned after the failed stage (ok=%v)", pinned, ok)
	}
	if acq, _, rel := tensor.PoolStats(); acq == 0 || acq != rel {
		t.Fatalf("pool: %d acquires, %d releases — the stage's scratch was not returned", acq, rel)
	}

	writeByte(file[off])
	got, err := srv.Predict(reqs[1], 10*time.Second)
	if err != nil {
		t.Fatalf("serving after the shard was repaired: %v", err)
	}
	if !sameScores(got, want) {
		t.Fatal("scores after the repair differ from in-RAM serving")
	}
}

// Out-of-core serving under concurrency: 4 executors and 8 clients serve a
// packed store through one cache that holds 3 of its 32 shards, fewer than
// two batch frontiers touch, so concurrent stages contend for pins and
// evict each other's shards. Every response equals in-RAM solo inference
// bitwise, and after Close no shard stays pinned, every pooled buffer is
// back and no executor is left running.
func TestServeExecutorsShareAShardCache(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	f := newServeFixture(t)
	cfg := serveConfig(256 << 20)
	var reqs [][]int32
	for i := range int32(32) {
		reqs = append(reqs, []int32{(i * 127) % 4096, (i*509 + 3) % 4096, (i*1021 + 77) % 4096})
	}
	blocks, err := sample.NewNodeWise(cfg.Fanouts, cfg.Seed).Sample(f.ds.Graph, append(reqs[0][:3:3], reqs[1]...))
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int32]bool{}
	for _, nid := range blocks[0].SrcNID {
		shards[nid/int32(f.st.ShardRows())] = true
	}
	if len(shards) <= 3 {
		t.Fatalf("two frontiers touch %d shards; the cache must hold fewer", len(shards))
	}

	// In-RAM solo inference, one request per batch.
	solo, err := serve.New(f.ds, f.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo.Start()
	want := make([][][]float32, len(reqs))
	for i, nodes := range reqs {
		if want[i], err = solo.Predict(nodes, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	solo.Close()

	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := NewCache(f.st, 3*f.st.MaxShardBytes(), reg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := f.st.Dataset(cache)
	if err != nil {
		t.Fatal(err)
	}
	// The worker pool starts its goroutines lazily and keeps them; grow it
	// to its 4 workers first, so the baseline counts them.
	parallel.For(4, 1, func(int, int) {})
	goroutines := runtime.NumGoroutine()
	srv, err := serve.New(disk, f.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start() // drains the pool, zeroing its counters
	got := make([][][]float32, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += 8 {
				got[i], errs[i] = srv.Predict(reqs[i], 10*time.Second)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !sameScores(got[i], want[i]) {
			t.Fatalf("request %d: out-of-core scores differ from in-RAM solo inference", i)
		}
	}
	if reg.CounterValue("store.evictions") == 0 {
		t.Fatal("no shard was evicted: the cache held every frontier")
	}
	if held := cache.lru.Held(); held != 0 {
		t.Fatalf("%d shards still pinned after Close", held)
	}
	if acq, _, rel := tensor.PoolStats(); acq == 0 || acq != rel {
		t.Fatalf("pool: %d acquires, %d releases after Close", acq, rel)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("%d goroutines after Close, %d before the server", n, goroutines)
	}
}
