// Multigpu: scale Betty micro-batch training across several simulated
// devices with GSplit-style split-parallelism. Every planned micro-batch is
// itself REG-partitioned into one shard per device; each device's ledger
// holds only its shard, and boundary (halo) features move between devices
// instead of being re-loaded from the host. The result is bit-identical to
// single-device training at any device count; only the per-device memory
// and the halo traffic change.
//
//	go run ./examples/multigpu
package main

import (
	"fmt"
	"log"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
)

func main() {
	ds, err := dataset.LoadScaled("ogbn-products", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d nodes, %d train\n\n", ds.Name, ds.Graph.NumNodes(), len(ds.TrainIdx))

	const k = 16
	fmt.Printf("%-8s %-10s %s\n", "devices", "halo/MiB", "max peak/MiB")
	for _, numDev := range []int{1, 2, 4, 8} {
		s, err := core.BuildSAGE(ds, core.Options{
			Hidden: 64, Fanouts: []int{3, 8}, Seed: 11, FixedK: k,
		})
		if err != nil {
			log.Fatal(err)
		}
		devs := make([]*device.Device, numDev)
		for i := range devs {
			devs[i] = device.New(4*device.GiB, device.DefaultCostModel())
		}
		md := &core.MultiDevice{Engine: s.Engine, Devices: devs}
		st, err := md.TrainEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-10.2f %.1f\n",
			numDev, float64(st.HaloBytes)/(1<<20), float64(st.PeakBytes)/(1<<20))
	}
	fmt.Println("\nlosses, gradients, and parameters are bitwise identical regardless of")
	fmt.Println("the device count; only the per-device memory and the halo traffic change.")
}
