// Partitionlab: dissect Betty's redundancy-embedded-graph partitioning on
// one sampled batch. It compares the four batch partitioners (range,
// random, metis, betty) on redundancy, balance, and estimated peak memory,
// and prints the REG statistics that drive the differences — a miniature
// of the paper's Figures 11 and 16.
//
//	go run ./examples/partitionlab
package main

import (
	"fmt"
	"log"

	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/partition"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
)

func main() {
	ds, err := dataset.LoadScaled("ogbn-products", 0.4)
	if err != nil {
		log.Fatal(err)
	}

	// Sample the full training batch: a 2-level bipartite structure.
	sampler := sample.New([]int{3, 8}, 1)
	blocks, err := sampler.Sample(ds.Graph, ds.TrainIdx)
	if err != nil {
		log.Fatal(err)
	}
	stats := graph.Stats(blocks)
	fmt.Printf("full batch: %d output nodes, %d input nodes, %d edges across %d layers\n",
		stats.NumOutput, stats.NumInput, stats.TotalEdges, len(blocks))

	// Inspect the REG: its edge weights count shared neighbors.
	last := blocks[len(blocks)-1]
	regGraph, err := reg.BuildREGFast(last)
	if err != nil {
		log.Fatal(err)
	}
	var wsum float64
	var wmax float32
	for v := int32(0); int(v) < regGraph.N; v++ {
		_, ws := regGraph.Neighbors(v)
		for _, w := range ws {
			wsum += float64(w)
			if w > wmax {
				wmax = w
			}
		}
	}
	fmt.Printf("REG: %d nodes, %d directed half-edges, max shared-neighbor weight %.0f\n\n",
		regGraph.N, len(regGraph.Adj), wmax)

	// Model spec for memory estimates.
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: ds.FeatureDim(), Hidden: 64, OutDim: ds.NumClasses,
		Layers: len(blocks), Aggregator: nn.Mean,
	}, rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	spec := memory.SpecOf(model, nn.NewAdam(model, 0.01))

	const k = 8
	fmt.Printf("%-8s %12s %14s %12s %12s\n", "method", "redundancy", "max peak MiB", "balance", "REG cut")
	for _, p := range []reg.BatchPartitioner{
		reg.RangeBatch{},
		reg.RandomBatch{Seed: 9},
		reg.MetisBatch{Seed: 9},
		reg.BettyBatch{Seed: 9},
	} {
		groups, err := p.PartitionBatch(last, k)
		if err != nil {
			log.Fatal(err)
		}
		var micro [][]*graph.Block
		var maxPeak int64
		for _, sel := range groups {
			mb, err := graph.SliceBatch(blocks, sel)
			if err != nil {
				log.Fatal(err)
			}
			micro = append(micro, mb)
			est, err := memory.Estimate(mb, spec)
			if err != nil {
				log.Fatal(err)
			}
			if est.Peak() > maxPeak {
				maxPeak = est.Peak()
			}
		}
		redundancy := graph.InputRedundancy(blocks, micro)

		parts := make([]int32, last.NumDst)
		for pi, grp := range groups {
			for _, d := range grp {
				parts[d] = int32(pi)
			}
		}
		cut := partition.EdgeCut(regGraph, parts)
		balance := partition.Balance(regGraph, parts, k)
		fmt.Printf("%-8s %12d %14.2f %12.3f %12.0f\n",
			p.Name(), redundancy, float64(maxPeak)/(1<<20), balance, cut)
	}
	fmt.Println("\nlower REG cut -> fewer shared neighbors split apart -> less redundancy")
	fmt.Println("and a lower worst-case micro-batch footprint.")
}
