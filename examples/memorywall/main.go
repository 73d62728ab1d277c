// Memorywall: reproduce the paper's Figure 2 / Figure 10 story on one
// configuration. A 2-layer GraphSAGE with the LSTM aggregator exceeds the
// simulated device capacity in full-batch training (OOM), and Betty's
// memory-aware batch-level partitioning makes the same training run fit —
// with bitwise-identical learning dynamics.
//
//	go run ./examples/memorywall
package main

import (
	"errors"
	"fmt"
	"log"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/nn"
)

func main() {
	ds, err := dataset.LoadScaled("ogbn-products", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	const capacity = 96 * device.MiB
	fmt.Printf("dataset %s (%d nodes), simulated device capacity %d MiB\n",
		ds.Name, ds.Graph.NumNodes(), capacity/device.MiB)

	build := func(fixedK int) (*core.Setup, error) {
		return core.BuildSAGE(ds, core.Options{
			Hidden:     64,
			Layers:     1,
			Fanouts:    []int{10},
			Aggregator: nn.LSTM,
			Device:     device.New(capacity, device.DefaultCostModel()),
			Seed:       7,
			FixedK:     fixedK, // 0 = memory-aware planning
		})
	}

	// 1) Full-batch training: runs into the wall.
	full, err := build(1)
	if err != nil {
		log.Fatal(err)
	}
	_, err = full.Engine.TrainEpochFull()
	switch {
	case errors.Is(err, device.ErrOOM):
		fmt.Printf("full-batch training: OOM as expected\n  %v\n", err)
	case err != nil:
		log.Fatal(err)
	default:
		log.Fatal("expected the full batch to exceed the capacity; it fit")
	}

	// 2) Betty: the planner estimates micro-batch memory without running
	// anything and picks the smallest K that fits.
	betty, err := build(0)
	if err != nil {
		log.Fatal(err)
	}
	st, err := betty.Engine.TrainEpochMicro()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("betty: planner chose K=%d after estimating %d of %d candidate counts (the lower bound rules out the rest)\n",
		st.K, st.PlanAttempts, st.K)
	fmt.Printf("betty: measured peak %.1f MiB (estimated %.1f MiB) under the %d MiB capacity\n",
		float64(st.PeakBytes)/(1<<20), float64(st.MaxEstimate)/(1<<20), capacity/device.MiB)
	fmt.Printf("betty: loss %.4f, %d duplicated input nodes across micro-batches\n", st.Loss, st.Redundancy)
	fmt.Printf("betty: %.2f MiB moved host-to-device (features, labels, blocks)\n",
		float64(st.H2DBytes)/(1<<20))
}
