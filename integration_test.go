package betty_test

// End-to-end integration tests across the whole stack: the memory-wall
// story (full batch OOMs → planner partitions → training fits and learns →
// checkpoint round-trips → the restored model evaluates bit for bit like
// the trained one), exercised through the same public surface the examples
// and CLIs use.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"betty/internal/checkpoint"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/nn"
)

func TestEndToEndMemoryWallStory(t *testing.T) {
	ds, err := dataset.LoadScaled("ogbn-arxiv", 0.05)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Find the full-batch footprint and set a budget below it.
	probe, err := core.BuildSAGE(ds, core.Options{Seed: 5, Hidden: 32, Fanouts: []int{5, 10}, FixedK: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := probe.Engine.PlanEpoch(ds.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}
	capacity := plan.MaxPeak * 3 / 5

	// 2. Full-batch training on that budget must OOM.
	full, err := core.BuildSAGE(ds, core.Options{
		Seed: 5, Hidden: 32, Fanouts: []int{5, 10}, FixedK: 1,
		Device: device.New(capacity, device.DefaultCostModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Engine.TrainEpochFull(); !errors.Is(err, device.ErrOOM) {
		t.Fatalf("expected OOM on the constrained device, got %v", err)
	}

	// 3. Betty on the same budget trains for several epochs and learns.
	betty, err := core.BuildSAGE(ds, core.Options{
		Seed: 5, Hidden: 32, Fanouts: []int{5, 10},
		Device: device.New(capacity, device.DefaultCostModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var k int
	for e := 0; e < 10; e++ {
		st, err := betty.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if st.PeakBytes > capacity {
			t.Fatalf("epoch %d peak %d exceeded capacity %d", e, st.PeakBytes, capacity)
		}
		k = st.K
	}
	if k < 2 {
		t.Fatalf("planner never partitioned (K=%d)", k)
	}
	acc, err := betty.Engine.TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 2.0/float64(ds.NumClasses) {
		t.Fatalf("accuracy %.3f no better than chance", acc)
	}

	// 4. Checkpoint the model and restore it into a fresh instance built
	// with the original's seed, so its evaluation sampler draws the same
	// neighborhoods.
	var buf bytes.Buffer
	sage := betty.Model.(*nn.GraphSAGE)
	if err := checkpoint.Save(&buf, sage, map[string]string{"acc": "trained"}); err != nil {
		t.Fatal(err)
	}
	restoredSetup, err := core.BuildSAGE(ds, core.Options{Seed: 5, Hidden: 32, Fanouts: []int{5, 10}})
	if err != nil {
		t.Fatal(err)
	}
	restored := restoredSetup.Model.(*nn.GraphSAGE)
	if _, err := checkpoint.Load(&buf, restored); err != nil {
		t.Fatal(err)
	}

	// 5. The restored model scores the trained one's test accuracy exactly.
	restoredAcc, err := restoredSetup.Engine.TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(restoredAcc) != math.Float64bits(acc) {
		t.Fatalf("restored test accuracy %v, trained %v", restoredAcc, acc)
	}
}

func TestEndToEndMultiDeviceMatchesSingle(t *testing.T) {
	ds, err := dataset.LoadScaled("ogbn-products", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.BuildSAGE(ds, core.Options{Seed: 6, Hidden: 16, Fanouts: []int{3, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := single.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}

	multiSetup, err := core.BuildSAGE(ds, core.Options{Seed: 6, Hidden: 16, Fanouts: []int{3, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	md := &core.MultiDevice{
		Engine: multiSetup.Engine,
		Devices: []*device.Device{
			device.New(device.GiB, device.DefaultCostModel()),
			device.New(device.GiB, device.DefaultCostModel()),
		},
	}
	mst, err := md.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if mst.K != sst.K {
		t.Fatalf("K differs: %d vs %d", mst.K, sst.K)
	}
	// same loss (weighted sums of the same micro-batch losses)
	if d := mst.Loss - sst.Loss; d > 1e-6 || d < -1e-6 {
		t.Fatalf("loss differs: %v vs %v", mst.Loss, sst.Loss)
	}
}
