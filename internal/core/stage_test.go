package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/store"
	"betty/internal/tensor"
)

const stageShardRows = 32

// outOfCore packs ds into a store file and opens it behind a shard cache
// that holds three shards. It returns the disk-backed dataset, the open
// store, the registry counting the cache's traffic, and the file's path.
func outOfCore(t *testing.T, ds *dataset.Dataset) (*dataset.Dataset, *store.Store, *obs.Registry, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.betty")
	if err := store.Pack(path, ds, store.PackConfig{ShardRows: stageShardRows}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg := obs.New(obs.NewFakeClock(0, 1))
	cache, err := store.NewCache(st, 3*st.MaxShardBytes(), reg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := st.Dataset(cache)
	if err != nil {
		t.Fatal(err)
	}
	return disk, st, reg, path
}

// shardPins reads how many shard pins the cache has served.
func shardPins(reg *obs.Registry) int64 {
	return reg.CounterValue("store.shard_misses") + reg.CounterValue("store.shard_hits")
}

// A 2-device out-of-core epoch stages its frontier once for its canonical
// execution — the shard replay reads no features — so it loads each shard
// at most once, and it trains bitwise like single-device training on the
// in-RAM matrix.
func TestMultiDeviceStageOutOfCore(t *testing.T) {
	opts := Options{Seed: 21, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 6}
	single, err := BuildSAGE(testData(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	disk, st, reg, _ := outOfCore(t, testData(t))
	multi, err := BuildSAGE(disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	multi.Engine.SetObs(reg)
	md := &MultiDevice{Engine: multi.Engine, Devices: []*device.Device{
		device.New(device.GiB, device.DefaultCostModel()),
		device.New(device.GiB, device.DefaultCostModel()),
	}}
	for e := 0; e < 3; e++ {
		before := reg.CounterValue("store.shard_misses")
		stS, err := single.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatal(err)
		}
		stM, err := md.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(stM.Loss) != math.Float64bits(stS.Loss) ||
			math.Float64bits(stM.TrainAcc) != math.Float64bits(stS.TrainAcc) {
			t.Fatalf("epoch %d: 2-device out-of-core loss/acc %v/%v, single-device in-RAM %v/%v",
				e+1, stM.Loss, stM.TrainAcc, stS.Loss, stS.TrainAcc)
		}
		if loads := reg.CounterValue("store.shard_misses") - before; loads > int64(st.NumShards()) {
			t.Fatalf("epoch %d: %d shard loads over %d shards: some shard loaded twice", e+1, loads, st.NumShards())
		}
		// The stage is the full batch's input frontier, counted as host bytes.
		staged := int64(stM.InputNodes-stM.Redundancy) * int64(disk.FeatureDim()) * 4
		if got, _ := reg.GaugeValue("train.staged_bytes"); got != staged {
			t.Fatalf("epoch %d: train.staged_bytes %d, want %d", e+1, got, staged)
		}
		if stM.HostBytes < staged {
			t.Fatalf("epoch %d: host bytes %d omit the %d staged bytes", e+1, stM.HostBytes, staged)
		}
	}
	var ps, pm []float32
	for _, p := range single.Model.Params() {
		ps = append(ps, p.Value.Data...)
	}
	for _, p := range multi.Model.Params() {
		pm = append(pm, p.Value.Data...)
	}
	compareTraces(t, "2-device out-of-core vs single-device in-RAM", nil, nil, ps, pm)
}

// A shard that fails its checksum while the batch is being staged fails the
// epoch loudly, naming the shard, and leaves nothing behind: no shard stays
// pinned, the runner holds no stage, and the stage's scratch is back in the
// pool. Once the shard reads cleanly again, training resumes.
func TestStageFailureLeavesNothingBehind(t *testing.T) {
	ds := testData(t)
	disk, _, reg, path := outOfCore(t, ds)
	s, err := BuildSAGE(disk, Options{Seed: 21, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.SetObs(reg)
	// With one worker the clean epoch's ascending walk leaves the three
	// highest shards resident, so the lowest one is read from disk again.
	prev := parallel.SetWorkers(1)
	_, err = s.Engine.TrainEpochMicro()
	parallel.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := s.Engine.PlanEpoch(disk.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the lowest touched shard's payload on disk.
	victim := int(slices.Min(full[0].SrcNID)) / stageShardRows
	dim := ds.FeatureDim()
	rows := ds.Features.Data[victim*stageShardRows*dim : (victim+1)*stageShardRows*dim]
	payload, err := store.EncodeShard(stageShardRows, dim, rows)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(file, payload)
	if off < 0 {
		t.Fatalf("shard %d payload not found in %s", victim, path)
	}
	off += len(payload) / 2
	writeByte := func(b byte) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{b}, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	writeByte(file[off] ^ 0x40)

	tensor.DrainPool() // zero the pool counters
	_, err = s.Engine.TrainEpochMicro()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("feature shard %d ", victim)) {
		t.Fatalf("epoch over a corrupt shard %d: err = %v", victim, err)
	}
	if pinned, ok := reg.GaugeValue("store.pinned_shards"); !ok || pinned != 0 {
		t.Fatalf("%d shards still pinned after the failed stage (ok=%v)", pinned, ok)
	}
	if acq, _, rel := tensor.PoolStats(); acq == 0 || acq != rel {
		t.Fatalf("pool: %d acquires, %d releases — the stage's scratch was not returned", acq, rel)
	}

	// The runner holds no stage: the next micro-batch gathers from the
	// source, and once the shard reads cleanly training resumes.
	writeByte(file[off])
	before := shardPins(reg)
	if _, err := s.Runner.RunMicroBatch(full, 1); err != nil {
		t.Fatal(err)
	}
	if shardPins(reg) == before {
		t.Fatal("micro-batch after the failed stage did not gather from the source")
	}
	if _, err := s.Engine.TrainEpochMicro(); err != nil {
		t.Fatalf("training after the shard was repaired: %v", err)
	}
}
