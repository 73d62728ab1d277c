package store

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"betty/internal/dataset"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/serve"
)

// TestOutOfCoreEndToEnd is the headline proof of this subsystem: a graph
// whose feature matrix is 10× the cache budget trains and serves
// bitwise-identically to the in-RAM path, while the byte ledger proves
// residency never exceeded the budget. When STORE_E2E_LEDGER names a
// path, the run's full metric registry is written there as NDJSON (CI
// uploads it as an artifact).
func TestOutOfCoreEndToEnd(t *testing.T) {
	ds := genDataset(t, 4096, 48, 41) // 4096×48×4B = 768 KiB of features
	st := openTemp(t, packTemp(t, ds, 128))

	budget := st.FeatureBytes() / 10
	if st.FeatureBytes() < 10*budget {
		t.Fatalf("feature matrix %d not ≥ 10× budget %d", st.FeatureBytes(), budget)
	}
	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := NewCache(st, budget, reg)
	if err != nil {
		t.Fatal(err)
	}
	diskDS, err := st.Dataset(cache)
	if err != nil {
		t.Fatal(err)
	}

	// Train both paths with the same seed.
	const epochs = 3
	ram := buildSAGE(t, ds, 9)
	disk := buildSAGE(t, diskDS, 9)
	disk.Engine.SetObs(reg)
	ramLosses := trainLosses(t, ram, epochs)
	diskLosses := trainLosses(t, disk, epochs)
	for e := range ramLosses {
		if ramLosses[e] != diskLosses[e] {
			t.Fatalf("epoch %d: out-of-core loss %x != in-RAM loss %x", e+1, diskLosses[e], ramLosses[e])
		}
	}
	// One shard pass per batch: each epoch stages its input frontier with a
	// single gather, so no shard loads twice in an epoch.
	if misses := reg.CounterValue("store.shard_misses"); misses > int64(st.NumShards()*epochs) {
		t.Fatalf("%d shard loads in %d epochs over %d shards: more than one pass per batch",
			misses, epochs, st.NumShards())
	}
	ra, da := paramBits(ram), paramBits(disk)
	for i := range ra {
		if ra[i] != da[i] {
			t.Fatalf("trained parameter %d differs between in-RAM and out-of-core", i)
		}
	}
	va, err := ram.Engine.ValAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := disk.Engine.ValAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(va) != math.Float64bits(vb) {
		t.Fatalf("validation accuracy differs: %v vs %v", va, vb)
	}

	// Serve both trained models and compare predictions bitwise. The
	// disk-backed server's feature cache misses read the batch stage,
	// gathered through the shard cache once per batch.
	nodes := make([]int32, 64)
	for i := range nodes {
		nodes[i] = int32((i * 61) % 4096)
	}
	predict := func(t *testing.T, srvDS *serveDataset) [][]float32 {
		cfg := serve.Defaults()
		cfg.Fanouts = []int{3, 3}
		cfg.Seed = 9
		srv, err := serve.New(srvDS.ds, srvDS.model, cfg)
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
	ramPred := predict(t, &serveDataset{ds: ds, model: ram.Model})
	diskPred := predict(t, &serveDataset{ds: diskDS, model: disk.Model})
	if len(ramPred) != len(diskPred) {
		t.Fatal("prediction count mismatch")
	}
	for i := range ramPred {
		for j := range ramPred[i] {
			if math.Float32bits(ramPred[i][j]) != math.Float32bits(diskPred[i][j]) {
				t.Fatalf("prediction %d[%d] differs between in-RAM and out-of-core serving", i, j)
			}
		}
	}

	// The ledger proves budget safety: the cache's high-water mark and the
	// published gauge both stayed at or under budget for the entire run.
	if cache.PeakBytes() > cache.Budget() {
		t.Fatalf("ledger peak %d exceeded budget %d", cache.PeakBytes(), cache.Budget())
	}
	if peak, ok := reg.GaugeValue("store.resident_peak_bytes"); !ok || peak > budget {
		t.Fatalf("published peak %d (ok=%v) exceeded budget %d", peak, ok, budget)
	}
	if reg.CounterValue("store.evictions") == 0 {
		t.Fatal("a 10×-over-budget run must evict")
	}

	if path := os.Getenv("STORE_E2E_LEDGER"); path != "" {
		if err := reg.WriteFile(path); err != nil {
			t.Fatalf("writing ledger artifact: %v", err)
		}
	}
}

// TestOutOfCoreOneShardPassPerBatch pins the batch stage's shard traffic as
// an exact count. Over a cache that holds 3 shards, an epoch of K
// micro-batches pins each shard its input frontier touches exactly once:
// the frontier is staged with one gather in shard order, and the
// micro-batches read the stage. (Gathering per micro-batch instead walks
// nearly every shard K times, since REG groups outputs by shared
// neighbours, not by node-id range.) With one worker every pin is a load:
// the three shards left resident by the previous epoch are the highest,
// evicted before the ascending walk reaches them. With more workers a shard
// whose copy finished late can survive into the next epoch as a hit, so
// there only the pins are exact. Losses stay bitwise equal to the in-RAM
// run at every K.
func TestOutOfCoreOneShardPassPerBatch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			oneShardPassPerBatch(t, workers)
		})
	}
}

func oneShardPassPerBatch(t *testing.T, workers int) {
	ds := genDataset(t, 4096, 48, 41)
	st := openTemp(t, packTemp(t, ds, 128))
	for _, k := range []int{1, 3, 8} {
		reg := obs.New(obs.NewFakeClock(0, 1))
		cache, err := NewCache(st, 3*st.MaxShardBytes(), reg)
		if err != nil {
			t.Fatal(err)
		}
		diskDS, err := st.Dataset(cache)
		if err != nil {
			t.Fatal(err)
		}
		ram := buildSAGEK(t, ds, 9, k)
		disk := buildSAGEK(t, diskDS, 9, k)
		disk.Engine.SetObs(reg)

		// The sampler is a pure function of the seeds, so every epoch's
		// frontier is this one.
		full, err := disk.Engine.Sampler.Sample(diskDS.Graph, diskDS.TrainIdx)
		if err != nil {
			t.Fatal(err)
		}
		shards := map[int32]bool{}
		for _, nid := range full[0].SrcNID {
			shards[nid/int32(st.ShardRows())] = true
		}
		touched := int64(len(shards))
		if touched <= 8 {
			t.Fatalf("frontier touches %d shards; the count below needs more than the cache holds", touched)
		}
		// The second epoch starts with the first one's residue in the cache.
		for e := 0; e < 2; e++ {
			beforeMisses := reg.CounterValue("store.shard_misses")
			beforeHits := reg.CounterValue("store.shard_hits")
			ramSt, err := ram.Engine.TrainEpochMicro()
			if err != nil {
				t.Fatal(err)
			}
			diskSt, err := disk.Engine.TrainEpochMicro()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ramSt.Loss) != math.Float64bits(diskSt.Loss) {
				t.Fatalf("K=%d epoch %d: out-of-core loss %v != in-RAM loss %v", k, e+1, diskSt.Loss, ramSt.Loss)
			}
			misses := reg.CounterValue("store.shard_misses") - beforeMisses
			pins := misses + reg.CounterValue("store.shard_hits") - beforeHits
			if pins != touched || (workers == 1 && misses != touched) {
				t.Fatalf("workers=%d K=%d epoch %d: %d shard pins, %d loads; want %d pins, one per shard the frontier touches",
					workers, k, e+1, pins, misses, touched)
			}
		}
		if cache.PeakBytes() > cache.Budget() {
			t.Fatalf("workers=%d K=%d: ledger peak %d exceeded budget %d", workers, k, cache.PeakBytes(), cache.Budget())
		}
	}
}

// serveDataset pairs a dataset with the model trained on it.
type serveDataset struct {
	ds    *dataset.Dataset
	model any
}
