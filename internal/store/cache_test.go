package store

import (
	"errors"
	"math"
	"sync"
	"testing"

	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/tensor"
)

var errShardMismatch = errors.New("pinned shard row differs from in-RAM features")

// gatherAll pulls every node's features through src in a scrambled order,
// in chunks, and returns the concatenated matrix.
func gatherAll(t *testing.T, src interface {
	Rows() int
	Dim() int
	GatherInto(*tensor.Tensor, []int32) error
}, stride int) *tensor.Tensor {
	t.Helper()
	n := src.Rows()
	nids := make([]int32, n)
	for i := range nids {
		nids[i] = int32((i * 131) % n)
	}
	out := tensor.New(n, src.Dim())
	for lo := 0; lo < n; lo += stride {
		hi := min(lo+stride, n)
		chunk := tensor.New(hi-lo, src.Dim())
		if err := src.GatherInto(chunk, nids[lo:hi]); err != nil {
			t.Fatal(err)
		}
		copy(out.Data[lo*src.Dim():], chunk.Data)
	}
	return out
}

// The eviction invariants, under concurrency and an adversarially tiny
// budget: results bitwise equal to an unbounded run, ledger high-water
// never above budget, and the obs gauges agreeing with the ledger.
func TestEvictionInvariants(t *testing.T) {
	ds := genDataset(t, 1500, 24, 21)
	path := packTemp(t, ds, 64) // ~24 shards of 6KiB

	for _, workers := range []int{1, 8} {
		prev := parallel.SetWorkers(workers)
		st := openTemp(t, path)
		reg := obs.New(obs.NewFakeClock(0, 1))
		// Tiny budget: barely two shards resident at once.
		cache, err := NewCache(st, st.MaxShardBytes()*2, reg)
		if err != nil {
			t.Fatal(err)
		}
		got := gatherAll(t, NewFeatures(cache), 193)
		parallel.SetWorkers(prev)

		// Compare against the in-RAM matrix directly (same scrambled order).
		n, dim := 1500, 24
		for i := 0; i < n; i++ {
			nid := (i * 131) % n
			for j := 0; j < dim; j++ {
				if math.Float32bits(got.At(i, j)) != math.Float32bits(ds.Features.At(nid, j)) {
					t.Fatalf("workers=%d: row %d col %d differs from in-RAM", workers, nid, j)
				}
			}
		}
		if cache.PeakBytes() > cache.Budget() {
			t.Fatalf("workers=%d: ledger peak %d exceeds budget %d", workers, cache.PeakBytes(), cache.Budget())
		}
		if peak, ok := reg.GaugeValue("store.resident_peak_bytes"); !ok || peak > cache.Budget() {
			t.Fatalf("workers=%d: gauge peak %d (ok=%v) vs budget %d", workers, peak, ok, cache.Budget())
		}
		if reg.CounterValue("store.evictions") == 0 {
			t.Fatalf("workers=%d: a 2-shard budget over 24 shards must evict", workers)
		}
		if reg.CounterValue("store.shard_misses") == 0 {
			t.Fatalf("workers=%d: no shard loads recorded", workers)
		}
	}
}

// A pinned shard must survive arbitrary eviction pressure: its data stays
// valid and re-pinning it is a hit, not a reload.
func TestPinnedShardSurvivesEviction(t *testing.T) {
	ds := genDataset(t, 1000, 16, 22)
	st := openTemp(t, packTemp(t, ds, 64))
	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := NewCache(st, st.MaxShardBytes()*3, reg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cache.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), sh.Data...)

	// Churn every other shard through the remaining budget.
	for round := 0; round < 3; round++ {
		for id := 0; id < st.NumShards(); id++ {
			if id == 2 {
				continue
			}
			other, err := cache.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			cache.Unpin(other)
		}
	}
	for i := range snapshot {
		if math.Float32bits(sh.Data[i]) != math.Float32bits(snapshot[i]) {
			t.Fatal("pinned shard data changed under eviction pressure")
		}
	}
	misses := reg.CounterValue("store.shard_misses")
	again, err := cache.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	if again != sh {
		t.Fatal("re-pinning a pinned shard reloaded it")
	}
	if reg.CounterValue("store.shard_misses") != misses {
		t.Fatal("re-pinning a pinned shard counted as a miss")
	}
	if reg.CounterValue("store.shard_hits") == 0 {
		t.Fatal("no hits recorded")
	}
	cache.Unpin(again)
	cache.Unpin(sh)
	if cache.PeakBytes() > cache.Budget() {
		t.Fatalf("peak %d exceeds budget %d", cache.PeakBytes(), cache.Budget())
	}
}

// Concurrent raw pinners at a one-shard budget: every worker makes
// progress (pin waits, not deadlock), sees its shard's rows bitwise (the
// short remainder shard included), and the ledger never overshoots.
func TestConcurrentPinOneShardBudget(t *testing.T) {
	ds := genDataset(t, 600, 8, 23)
	st := openTemp(t, packTemp(t, ds, 64))
	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := NewCache(st, st.MaxShardBytes(), reg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := (w*7 + i) % st.NumShards()
				sh, err := cache.Pin(id)
				if err != nil {
					errs[w] = err
					return
				}
				// Every row, bitwise: loads read into evicted shards'
				// buffers, shared by all workers through one spare slot.
				for r := sh.Start; r < sh.Start+sh.Rows; r++ {
					for j, v := range sh.Row(r) {
						if math.Float32bits(v) != math.Float32bits(ds.Features.At(r, j)) {
							errs[w] = errShardMismatch
						}
					}
				}
				cache.Unpin(sh)
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if cache.PeakBytes() > cache.Budget() {
		t.Fatalf("peak %d exceeds one-shard budget %d", cache.PeakBytes(), cache.Budget())
	}
	if reg.CounterValue("store.pin_waits") == 0 {
		t.Log("note: no pin waits observed (schedule-dependent, not a failure)")
	}
}

func TestUnpairedUnpinPanics(t *testing.T) {
	ds := genDataset(t, 200, 8, 24)
	st := openTemp(t, packTemp(t, ds, 64))
	cache, err := NewCache(st, st.MaxShardBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cache.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	cache.Unpin(sh)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin did not panic")
		}
	}()
	cache.Unpin(sh)
}
