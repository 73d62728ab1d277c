package bench

import (
	"fmt"

	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
)

// batchPartitioners returns the four compared algorithms in paper order.
func batchPartitioners(seed uint64) []reg.BatchPartitioner {
	return []reg.BatchPartitioner{
		reg.RangeBatch{},
		reg.RandomBatch{Seed: seed},
		reg.MetisBatch{Seed: seed},
		reg.BettyBatch{Seed: seed},
	}
}

// sageSpec builds a GraphSAGE model of the given shape over ds and returns
// its memory spec (Adam optimizer, as in the paper's training setup).
func sageSpec(ds *dataset.Dataset, layers, hidden int, agg nn.Aggregator) (memory.Spec, error) {
	cfg := nn.Config{
		InDim: ds.FeatureDim(), Hidden: hidden, OutDim: ds.NumClasses,
		Layers: layers, Aggregator: agg,
	}
	m, err := nn.NewGraphSAGE(cfg, rng.New(1))
	if err != nil {
		return memory.Spec{}, err
	}
	return memory.SpecOf(m, nn.NewAdam(m, 0.01)), nil
}

// fullBatch samples the full training batch of ds under the fanouts.
func fullBatch(ds *dataset.Dataset, fanouts []int, seed uint64) ([]*graph.Block, error) {
	return sample.New(fanouts, seed).Sample(ds.Graph, ds.TrainIdx)
}

// estimateConfig estimates the full-batch peak for one model/fanout shape.
func estimateConfig(ds *dataset.Dataset, layers, hidden int, agg nn.Aggregator, fanouts []int) (memory.Breakdown, memory.Spec, []*graph.Block, error) {
	spec, err := sageSpec(ds, layers, hidden, agg)
	if err != nil {
		return memory.Breakdown{}, spec, nil, err
	}
	blocks, err := fullBatch(ds, fanouts, 1)
	if err != nil {
		return memory.Breakdown{}, spec, nil, err
	}
	est, err := memory.Estimate(blocks, spec)
	return est, spec, blocks, err
}

// oomMark renders an estimated peak against the simulated capacity.
func oomMark(peak int64) string {
	if peak > SimCapacity {
		return "OOM"
	}
	return ""
}

// fig2Configs are the four panels of Figure 2 (and Figure 10): the
// memory-wall sweeps on ogbn-products. Dimensions are scaled with the
// dataset (see EXPERIMENTS.md) so the same knobs cross the capacity.
type fig2Config struct {
	panel   string
	label   string
	layers  int
	hidden  int
	agg     nn.Aggregator
	fanouts []int
}

func fig2Configs() []fig2Config {
	return []fig2Config{
		// (a) neighbor aggregators, 2-layer, hidden 256, fanout (10,25)
		{"a", "mean", 2, 256, nn.Mean, []int{10, 25}},
		{"a", "pool", 2, 256, nn.Pool, []int{10, 25}},
		{"a", "lstm", 2, 256, nn.LSTM, []int{10, 25}},
		// (b) number of layers, Mean, hidden 256, fanouts (10,25,30,40,40)
		{"b", "2-layer", 2, 256, nn.Mean, []int{10, 25}},
		{"b", "3-layer", 3, 256, nn.Mean, []int{10, 25, 30}},
		{"b", "4-layer", 4, 256, nn.Mean, []int{10, 25, 30, 40}},
		{"b", "5-layer", 5, 256, nn.Mean, []int{10, 25, 30, 40, 40}},
		// (c) hidden size, 4-layer Mean
		{"c", "hidden-64", 4, 64, nn.Mean, []int{10, 25, 30, 40}},
		{"c", "hidden-128", 4, 128, nn.Mean, []int{10, 25, 30, 40}},
		{"c", "hidden-256", 4, 256, nn.Mean, []int{10, 25, 30, 40}},
		{"c", "hidden-512", 4, 512, nn.Mean, []int{10, 25, 30, 40}},
		// (d) fanout, 1-layer LSTM, hidden 256
		{"d", "fanout-10", 1, 256, nn.LSTM, []int{10}},
		{"d", "fanout-20", 1, 256, nn.LSTM, []int{20}},
		{"d", "fanout-100", 1, 256, nn.LSTM, []int{100}},
		{"d", "fanout-800", 1, 256, nn.LSTM, []int{800}},
	}
}

const fig2Scale = 1.0 // products at full (registry) scale for the estimation sweeps

func init() {
	register(&Experiment{
		ID:    "fig2",
		Paper: "Figure 2: GPU memory consumption of GraphSAGE on ogbn-products across aggregators, depths, hidden sizes, and fanouts (full batch, no Betty)",
		Run:   runFig2,
	})
	register(&Experiment{
		ID:    "fig3",
		Paper: "Figure 3: memory breakdown of 1-layer GraphSAGE+Mean on ogbn-products (fanout 10, hidden 64)",
		Run:   runFig3,
	})
	register(&Experiment{
		ID:    "fig9",
		Paper: "Figure 9: in-degree distribution of destination nodes and of two REG micro-batches (ogbn-arxiv)",
		Run:   runFig9,
	})
	register(&Experiment{
		ID:    "fig10",
		Paper: "Figure 10: Betty breaks the Figure 2 memory wall; micro-batch counts chosen by the memory-aware planner",
		Run:   runFig10,
	})
	register(&Experiment{
		ID:    "fig11",
		Paper: "Figure 11: max memory reduction vs range/random/Metis partitioning (GraphSAGE, ogbn-products, varying batch counts; summary across datasets)",
		Run:   runFig11,
	})
	register(&Experiment{
		ID:    "fig16",
		Paper: "Figure 16: input-node redundancy of range/random/Metis/Betty versus the number of batches (3-layer GraphSAGE+Mean, ogbn-products)",
		Run:   runFig16,
	})
	register(&Experiment{
		ID:    "tab2",
		Paper: "Table 2: micro-batch memory imbalance of pure REG partitioning (GraphSAGE, ogbn-arxiv, 2 and 4 batches)",
		Run:   runTab2,
	})
}

func runFig2(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(fig2Scale))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   fmt.Sprintf("full-batch estimated peak memory, capacity %s GiB", fmtGiB(SimCapacity)),
		Columns: []string{"panel", "config", "layers", "hidden", "agg", "fanouts", "peak/GiB", "status"},
	}
	for _, c := range fig2Configs() {
		est, _, _, err := estimateConfig(ds, c.layers, c.hidden, c.agg, c.fanouts)
		if err != nil {
			return nil, err
		}
		o.logf("fig2 %s/%s peak=%s GiB", c.panel, c.label, fmtGiB(est.Peak()))
		t.AddRow(c.panel, c.label, fmtI(c.layers), fmtI(c.hidden), c.agg.String(),
			fmt.Sprint(c.fanouts), fmtGiB(est.Peak()), oomMark(est.Peak()))
	}
	return []*Table{t}, nil
}

func runFig3(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(fig2Scale))
	if err != nil {
		return nil, err
	}
	est, _, _, err := estimateConfig(ds, 1, 64, nn.Mean, []int{10})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "memory breakdown, 1-layer GraphSAGE+Mean, fanout 10, hidden 64",
		Columns: []string{"component", "MiB", "share/%"},
	}
	total := float64(est.Params + est.InputFeatures + est.Labels + est.Blocks +
		est.Hidden + est.Aggregator + est.Gradients + est.OptStates)
	row := func(name string, v int64) {
		t.AddRow(name, fmtMiB(v), fmtF(100*float64(v)/total, 1))
	}
	row("input node features", est.InputFeatures)
	row("output node labels", est.Labels)
	row("edges (blocks)", est.Blocks)
	row("hidden layer output", est.Hidden)
	row("aggregator", est.Aggregator)
	row("model parameters", est.Params)
	row("gradients", est.Gradients)
	row("optimizer states", est.OptStates)
	return []*Table{t}, nil
}

func runFig9(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-arxiv", o.scale(0.5))
	if err != nil {
		return nil, err
	}
	blocks, err := fullBatch(ds, []int{10, 25}, 1)
	if err != nil {
		return nil, err
	}
	last := blocks[len(blocks)-1]
	const maxBucket = 10

	ta := &Table{
		ID:      "fig9",
		Title:   "(a) in-degree distribution of the batch's destination nodes",
		Columns: []string{"in-degree", "nodes"},
	}
	hist := last.InDegreeHistogram(maxBucket)
	for d, c := range hist {
		label := fmtI(d)
		if d == maxBucket {
			label = fmt.Sprintf(">=%d", maxBucket)
		}
		ta.AddRow(label, fmtI(c))
	}

	groups, err := (reg.BettyBatch{Seed: 1}).PartitionBatch(last, 2)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "fig9",
		Title:   "(b) in-degree distribution of the two REG micro-batches",
		Columns: []string{"in-degree", "micro-batch 0", "micro-batch 1", "imbalance/%"},
	}
	var hists [2][]int
	for gi, sel := range groups {
		micro, err := graph.SliceBatch(blocks, sel)
		if err != nil {
			return nil, err
		}
		hists[gi] = micro[len(micro)-1].InDegreeHistogram(maxBucket)
	}
	for d := 0; d <= maxBucket; d++ {
		label := fmtI(d)
		if d == maxBucket {
			label = fmt.Sprintf(">=%d", maxBucket)
		}
		a, b := hists[0][d], hists[1][d]
		imb := 0.0
		if a+b > 0 {
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > 0 {
				imb = 100 * float64(hi-lo) / float64(lo)
			} else if hi > 0 {
				imb = 100
			}
		}
		tb.AddRow(label, fmtI(a), fmtI(b), fmtF(imb, 1))
	}
	return []*Table{ta, tb}, nil
}

func runFig10(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(fig2Scale))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10",
		Title:   fmt.Sprintf("memory-aware planning under a %s GiB capacity: micro-batch count K per Figure 2 config", fmtGiB(SimCapacity)),
		Columns: []string{"panel", "config", "full peak/GiB", "K", "max micro peak/GiB", "attempts"},
	}
	for _, c := range fig2Configs() {
		est, spec, blocks, err := estimateConfig(ds, c.layers, c.hidden, c.agg, c.fanouts)
		if err != nil {
			return nil, err
		}
		pl := &memory.Planner{
			Capacity:    SimCapacity,
			Partitioner: reg.BettyBatch{Seed: 1},
			Spec:        spec,
		}
		plan, err := pl.Plan(blocks)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s/%s: %w", c.panel, c.label, err)
		}
		o.logf("fig10 %s/%s K=%d", c.panel, c.label, plan.K)
		t.AddRow(c.panel, c.label, fmtGiB(est.Peak()), fmtI(plan.K), fmtGiB(plan.MaxPeak), fmtI(plan.Attempts))
	}
	return []*Table{t}, nil
}

func runFig11(o Options) ([]*Table, error) {
	// Panel 1: ogbn-products across batch counts, all four partitioners.
	spec, blocks, err := fig11Batch(o, "ogbn-products")
	if err != nil {
		return nil, err
	}
	t1 := &Table{
		ID:      "fig11",
		Title:   "max micro-batch estimated peak (MiB), GraphSAGE ogbn-products",
		Columns: []string{"batches", "range", "random", "metis", "betty", "betty reduction/%"},
	}
	for _, k := range []int{2, 4, 8, 16, 32} {
		peaks, red, err := partitionerPeaks(blocks, spec, k)
		if err != nil {
			return nil, err
		}
		o.logf("fig11 k=%d betty reduction %.1f%%", k, red)
		t1.AddRow(fmtI(k), fmtMiB(peaks[0]), fmtMiB(peaks[1]), fmtMiB(peaks[2]), fmtMiB(peaks[3]), fmtF(red, 1))
	}

	// Panel 2: per-dataset summary at K=8.
	t2 := &Table{
		ID:      "fig11",
		Title:   "max micro-batch peak at K=8 across datasets (MiB)",
		Columns: []string{"dataset", "range", "random", "metis", "betty", "betty reduction/%"},
	}
	for _, name := range dataset.Names() {
		speci, blocksi, err := fig11Batch(o, name)
		if err != nil {
			return nil, err
		}
		peaks, red, err := partitionerPeaks(blocksi, speci, 8)
		if err != nil {
			return nil, err
		}
		t2.AddRow(name, fmtMiB(peaks[0]), fmtMiB(peaks[1]), fmtMiB(peaks[2]), fmtMiB(peaks[3]), fmtF(red, 1))
	}
	return []*Table{t1, t2}, nil
}

// fig11Batch is Figure 11's setup on one dataset: 2-layer SAGE-mean,
// hidden 128, full batch under fanouts (5,10) — scaled with the graph, as
// the paper's (10,25) on 2.45M nodes keeps multi-hop frontiers partial.
func fig11Batch(o Options, name string) (memory.Spec, []*graph.Block, error) {
	ds, err := loadDataset(name, o.scale(1.0))
	if err != nil {
		return memory.Spec{}, nil, err
	}
	spec, err := sageSpec(ds, 2, 128, nn.Mean)
	if err != nil {
		return spec, nil, err
	}
	blocks, err := fullBatch(ds, []int{5, 10}, 1)
	return spec, blocks, err
}

// partitionerPeaks returns the largest micro-batch estimate of a K-way split
// under each of batchPartitioners, and Betty's reduction in percent against
// the worst of the other three.
func partitionerPeaks(blocks []*graph.Block, spec memory.Spec, k int) ([]int64, float64, error) {
	var peaks []int64
	for _, p := range batchPartitioners(1) {
		plan, err := (&memory.Planner{Capacity: 1 << 62, Partitioner: p, Spec: spec}).EvaluateFixedK(blocks, k)
		if err != nil {
			return nil, 0, err
		}
		peaks = append(peaks, plan.MaxPeak)
	}
	worst := max(peaks[0], peaks[1], peaks[2])
	return peaks, 100 * (1 - float64(peaks[3])/float64(worst)), nil
}

func runFig16(o Options) ([]*Table, error) {
	// Fanouts (3,5,10) are the scaled equivalent of the paper's (25,35,40):
	// they keep 3-hop micro-batch frontiers partial on the 60k-node graph.
	ds, err := loadDataset("ogbn-products", o.scale(1.0))
	if err != nil {
		return nil, err
	}
	blocks, err := fullBatch(ds, []int{3, 5, 10}, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig16",
		Title:   "input-node redundancy vs batches, 3-layer GraphSAGE+Mean, scaled fanout (3,5,10)",
		Columns: []string{"batches", "range", "random", "metis", "betty", "betty vs best baseline/%"},
	}
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		reds := make([]int, 0, 4)
		for _, p := range batchPartitioners(1) {
			groups, err := p.PartitionBatch(blocks[len(blocks)-1], k)
			if err != nil {
				return nil, err
			}
			micro := make([][]*graph.Block, 0, k)
			for _, sel := range groups {
				mb, err := graph.SliceBatch(blocks, sel)
				if err != nil {
					return nil, err
				}
				micro = append(micro, mb)
			}
			reds = append(reds, graph.InputRedundancy(blocks, micro))
		}
		best := reds[0]
		for _, r := range reds[:3] {
			if r < best {
				best = r
			}
		}
		var save float64
		if best > 0 {
			save = 100 * (1 - float64(reds[3])/float64(best))
		}
		o.logf("fig16 k=%d betty=%d best-baseline=%d", k, reds[3], best)
		t.AddRow(fmtI(k), fmtI(reds[0]), fmtI(reds[1]), fmtI(reds[2]), fmtI(reds[3]), fmtF(save, 1))
	}
	return []*Table{t}, nil
}

func runTab2(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-arxiv", o.scale(0.5))
	if err != nil {
		return nil, err
	}
	spec, err := sageSpec(ds, 2, 128, nn.Mean)
	if err != nil {
		return nil, err
	}
	blocks, err := fullBatch(ds, []int{10, 25}, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab2",
		Title:   "micro-batch memory under pure REG partitioning (no memory-aware step)",
		Columns: []string{"batches", "batch id", "estimated peak/MiB", "vs min/%"},
	}
	for _, k := range []int{2, 4} {
		pl := &memory.Planner{Capacity: 1 << 62, Partitioner: reg.BettyBatch{Seed: 1}, Spec: spec}
		plan, err := pl.EvaluateFixedK(blocks, k)
		if err != nil {
			return nil, err
		}
		minPeak := plan.Estimates[0].Peak()
		for _, e := range plan.Estimates[1:] {
			if e.Peak() < minPeak {
				minPeak = e.Peak()
			}
		}
		for i, e := range plan.Estimates {
			over := 100 * (float64(e.Peak())/float64(minPeak) - 1)
			t.AddRow(fmtI(k), fmtI(i), fmtMiB(e.Peak()), fmtF(over, 1))
		}
	}
	return []*Table{t}, nil
}
