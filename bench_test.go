package betty_test

// The repository-level benchmark suite: one testing.B benchmark per table
// and figure of the paper (each drives the same regenerator as
// cmd/bettybench, at a reduced dataset scale so `go test -bench=.` stays
// tractable), plus micro-benchmarks of the substrate operations the system
// is built from (sampling, REG construction, partitioning, slicing,
// forward/backward, estimation).

import (
	"fmt"
	"io"
	"testing"

	"betty/internal/bench"
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/parallel"
	"betty/internal/partition"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
	"betty/internal/tensor"
	"betty/internal/train"
)

// benchScale shrinks every experiment's dataset for benchmarking; the
// full-scale numbers in EXPERIMENTS.md come from cmd/bettybench.
const benchScale = 0.15

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Scale: benchScale, Epochs: 3, Log: nil}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig02MemoryWall(b *testing.B)            { runExperiment(b, "fig2") }
func BenchmarkFig03MemoryBreakdown(b *testing.B)       { runExperiment(b, "fig3") }
func BenchmarkFig04FullVsMiniBatch(b *testing.B)       { runExperiment(b, "fig4") }
func BenchmarkFig09DegreeImbalance(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10BreakingTheWall(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkFig11MaxMemoryReduction(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12MemoryTimeTradeoff(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13Convergence(b *testing.B)           { runExperiment(b, "fig13") }
func BenchmarkFig14TrainingTime(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15ComputationEfficiency(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16Redundancy(b *testing.B)            { runExperiment(b, "fig16") }
func BenchmarkTab02LoadImbalance(b *testing.B)         { runExperiment(b, "tab2") }
func BenchmarkTab05Accuracy(b *testing.B)              { runExperiment(b, "tab5") }
func BenchmarkTab06MicroVsMini(b *testing.B)           { runExperiment(b, "tab6") }
func BenchmarkTab07EstimationError(b *testing.B)       { runExperiment(b, "tab7") }

// --- ablation benches for the design choices DESIGN.md calls out ---

func BenchmarkAblREG(b *testing.B)     { runExperiment(b, "abl-reg") }
func BenchmarkAblFM(b *testing.B)      { runExperiment(b, "abl-fm") }
func BenchmarkAblMatch(b *testing.B)   { runExperiment(b, "abl-match") }
func BenchmarkAblPlanner(b *testing.B) { runExperiment(b, "abl-planner") }

// --- substrate micro-benchmarks ---

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.LoadScaled("ogbn-products", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchBatch(b *testing.B, ds *dataset.Dataset, fanouts []int) []*graph.Block {
	b.Helper()
	blocks, err := sample.New(fanouts, 1).Sample(ds.Graph, ds.TrainIdx)
	if err != nil {
		b.Fatal(err)
	}
	return blocks
}

func BenchmarkNeighborSampling(b *testing.B) {
	ds := benchDataset(b)
	s := sample.New([]int{5, 10}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(ds.Graph, ds.TrainIdx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkREGConstructionFast(b *testing.B) {
	ds := benchDataset(b)
	blocks := benchBatch(b, ds, []int{5, 10})
	last := blocks[len(blocks)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.BuildREGFast(last); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulParallel measures the row-blocked matmul kernel across
// worker counts; sub-benchmark names carry the count so speedups read
// directly off `go test -bench MatMulParallel`.
func BenchmarkMatMulParallel(b *testing.B) {
	r := rng.New(1)
	x := tensor.New(1024, 256)
	x.Randn(r, 1)
	y := tensor.New(256, 256)
	y.Randn(r, 1)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, y)
			}
		})
	}
}

// BenchmarkBuildREGFastParallel measures sharded REG construction across
// worker counts on the same batch as BenchmarkREGConstructionFast, and on
// the benchmark's train_planned batch (ogbn-arxiv at scale 0.25, fanouts
// [10,25]: 5 400 outputs, ~267 k REG edges) — the block the planner builds
// its one REG per epoch from.
func BenchmarkBuildREGFastParallel(b *testing.B) {
	arxiv, err := dataset.LoadScaled("ogbn-arxiv", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		blocks []*graph.Block
	}{
		{"products", benchBatch(b, benchDataset(b), []int{5, 10})},
		{"arxiv", benchBatch(b, arxiv, []int{10, 25})},
	} {
		last := c.blocks[len(c.blocks)-1]
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := reg.BuildREGFast(last); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMetisPartition(b *testing.B) {
	ds := benchDataset(b)
	blocks := benchBatch(b, ds, []int{5, 10})
	g, err := reg.BuildREGFast(blocks[len(blocks)-1])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&partition.Metis{Seed: uint64(i)}).Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSlicing(b *testing.B) {
	ds := benchDataset(b)
	blocks := benchBatch(b, ds, []int{5, 10})
	groups, err := (reg.BettyBatch{Seed: 1}).PartitionBatch(blocks[len(blocks)-1], 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sel := range groups {
			if _, err := graph.SliceBatch(blocks, sel); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMemoryEstimate(b *testing.B) {
	ds := benchDataset(b)
	blocks := benchBatch(b, ds, []int{5, 10})
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: ds.FeatureDim(), Hidden: 64, OutDim: ds.NumClasses,
		Layers: 2, Aggregator: nn.Mean,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	spec := memory.SpecOf(model, nn.NewAdam(model, 0.01))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memory.Estimate(blocks, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchForwardBackward(b *testing.B, agg nn.Aggregator) {
	b.Helper()
	ds := benchDataset(b)
	blocks := benchBatch(b, ds, []int{3, 5})
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: ds.FeatureDim(), Hidden: 64, OutDim: ds.NumClasses,
		Layers: 2, Aggregator: agg,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	x, err := ds.GatherFeatures(blocks[0].SrcNID)
	if err != nil {
		b.Fatal(err)
	}
	labels := ds.GatherLabels(blocks[len(blocks)-1].DstNID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := tensor.NewTape()
		logits := model.Forward(tp, blocks, tensor.Leaf(x))
		loss := tp.SoftmaxCrossEntropy(logits, labels)
		tp.Backward(loss)
		nn.ZeroGrad(model)
	}
}

func BenchmarkSAGEMeanForwardBackward(b *testing.B) { benchForwardBackward(b, nn.Mean) }

// BenchmarkTrainStep measures the full training step — micro-batch
// forward+backward plus the optimizer — across worker counts, with the
// tape buffer pool on and off. Sub-benchmark names carry both settings so
// speedups and allocation reductions read directly off
// `go test -bench TrainStep`.
func BenchmarkTrainStep(b *testing.B) {
	ds := benchDataset(b)
	seeds := ds.TrainIdx
	if len(seeds) > 1024 {
		seeds = seeds[:1024]
	}
	blocks, err := sample.New([]int{5, 10}, 1).Sample(ds.Graph, seeds)
	if err != nil {
		b.Fatal(err)
	}
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: ds.FeatureDim(), Hidden: 64, OutDim: ds.NumClasses,
		Layers: 2, Aggregator: nn.Mean,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	runner := train.NewRunner(model, ds, nn.NewAdam(model, 0.01), nil)
	onOff := map[bool]string{true: "on", false: "off"}
	for _, pool := range []bool{true, false} {
		for _, w := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("workers=%d/pool=%s", w, onOff[pool])
			b.Run(name, func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				defer tensor.SetPooling(tensor.SetPooling(pool))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := runner.RunMicroBatch(blocks, 1); err != nil {
						b.Fatal(err)
					}
					runner.Step()
				}
			})
		}
	}
}
func BenchmarkSAGEPoolForwardBackward(b *testing.B) { benchForwardBackward(b, nn.Pool) }
func BenchmarkSAGELSTMForwardBackward(b *testing.B) { benchForwardBackward(b, nn.LSTM) }

func BenchmarkBettyEpoch(b *testing.B) {
	ds := benchDataset(b)
	s, err := core.BuildSAGE(ds, core.Options{
		Seed: 1, Hidden: 64, Fanouts: []int{3, 5}, FixedK: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Engine.TrainEpochMicro(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.LoadScaled("ogbn-arxiv", 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
