package bench

import (
	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/nn"
)

func init() {
	register(&Experiment{
		ID:    "fig14",
		Paper: "Figure 14: per-epoch data movement (first-layer inputs, host-to-device bytes) vs number of batches for range/random/Metis/Betty (3-layer GraphSAGE+Mean, ogbn-products)",
		Run:   runFig14,
	})
	register(&Experiment{
		ID:    "fig15",
		Paper: "Figure 15: computation work (total micro-batch nodes) and host-to-device bytes vs number of batches for the four partitioners",
		Run:   runFig15,
	})
	register(&Experiment{
		ID:    "tab6",
		Paper: "Table 6: first-layer inputs, host-to-device bytes, and memory of micro-batch vs mini-batch training as the batch count grows",
		Run:   runTab6,
	})
	register(&Experiment{
		ID:    "tab7",
		Paper: "Table 7: memory estimation error of the LSTM aggregator across datasets and partition counts",
		Run:   runTab7,
	})
}

// fig14Run holds the measurements shared by Figures 14 and 15.
type fig14Run struct {
	k           int
	partitioner string
	inputNodes  int
	totalNodes  int
	h2d         int64
}

// runFig14Sweep executes one epoch per (K, partitioner) combination of the
// Figure 14/15 configuration and returns the measurements.
func runFig14Sweep(o Options) ([]fig14Run, error) {
	ds, err := loadDataset("ogbn-products", o.scale(0.35))
	if err != nil {
		return nil, err
	}
	var out []fig14Run
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		if k > len(ds.TrainIdx) {
			continue
		}
		for _, p := range batchPartitioners(14) {
			if k == 1 && p.Name() != "betty" {
				continue // K=1 is partitioner-independent; record once
			}
			dev := bigDevice()
			s, err := core.BuildSAGE(ds, core.Options{
				Seed: 14, Hidden: 64, Layers: 3, Fanouts: []int{3, 5, 10},
				Aggregator: nn.Mean, FixedK: k, Device: dev, Partitioner: p,
			})
			if err != nil {
				return nil, err
			}
			st, err := s.Engine.TrainEpochMicro()
			if err != nil {
				return nil, err
			}
			// total nodes processed = inputs plus every layer's dst rows
			_, plan, err := s.Engine.PlanEpoch(ds.TrainIdx)
			if err != nil {
				return nil, err
			}
			totalNodes := 0
			for _, mb := range plan.Micro {
				totalNodes += graph.Stats(mb).TotalNodes
			}
			o.logf("fig14 %s k=%d inputs=%d h2d=%d", p.Name(), k, st.InputNodes, st.H2DBytes)
			out = append(out, fig14Run{
				k: k, partitioner: p.Name(),
				inputNodes: st.InputNodes, totalNodes: totalNodes, h2d: st.H2DBytes,
			})
		}
	}
	return out, nil
}

func runFig14(o Options) ([]*Table, error) {
	runs, err := runFig14Sweep(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "per-epoch data movement, 3-layer GraphSAGE+Mean, scaled fanout (3,5,10)",
		Columns: []string{"batches", "partitioner", "input nodes", "H2D bytes"},
	}
	for _, r := range runs {
		t.AddRow(fmtI(r.k), r.partitioner, fmtI(r.inputNodes), fmtBytes(r.h2d))
	}
	return []*Table{t}, nil
}

func runFig15(o Options) ([]*Table, error) {
	runs, err := runFig14Sweep(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig15",
		Title:   "computation work: total micro-batch nodes and host-to-device bytes",
		Columns: []string{"batches", "partitioner", "total nodes", "H2D bytes"},
	}
	for _, r := range runs {
		t.AddRow(fmtI(r.k), r.partitioner, fmtI(r.totalNodes), fmtBytes(r.h2d))
	}
	return []*Table{t}, nil
}

func runTab6(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(0.35))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab6",
		Title:   "micro-batch (Betty) vs mini-batch training, 2-layer GraphSAGE+Mean, scaled fanout (5,10)",
		Columns: []string{"batches", "micro inputs", "mini inputs", "micro H2D bytes", "mini H2D bytes", "micro mem/MiB", "mini mem/MiB"},
	}
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		if k > len(ds.TrainIdx) {
			continue
		}
		build := func() (*core.Setup, error) {
			return core.BuildSAGE(ds, core.Options{
				Seed: 6, Hidden: 64, Fanouts: []int{5, 10},
				Aggregator: nn.Mean, FixedK: k, Device: bigDevice(),
			})
		}
		ms, err := build()
		if err != nil {
			return nil, err
		}
		micro, err := ms.Engine.TrainEpochMicro()
		if err != nil {
			return nil, err
		}
		mn, err := build()
		if err != nil {
			return nil, err
		}
		mini, err := mn.Engine.TrainEpochMini(k, 6)
		if err != nil {
			return nil, err
		}
		o.logf("tab6 k=%d micro-in=%d mini-in=%d", k, micro.InputNodes, mini.InputNodes)
		t.AddRow(fmtI(k),
			fmtI(micro.InputNodes), fmtI(mini.InputNodes),
			fmtBytes(micro.H2DBytes), fmtBytes(mini.H2DBytes),
			fmtMiB(micro.PeakBytes), fmtMiB(mini.PeakBytes))
	}
	return []*Table{t}, nil
}

// tab7Config selects the dataset scales of the estimation-error runs.
var tab7Configs = []struct {
	ds      string
	scale   float64
	featDim int
}{
	{"cora", 1.0, 64},
	{"pubmed", 1.0, 64},
	{"reddit", 0.15, 64},
	{"ogbn-arxiv", 0.2, 64},
	{"ogbn-products", 0.2, 0},
}

func runTab7(o Options) ([]*Table, error) {
	t := &Table{
		ID:      "tab7",
		Title:   "memory estimation error, 1-layer GraphSAGE+LSTM, fanout 10",
		Columns: []string{"dataset", "batches", "estimated peak/MiB", "measured peak/MiB", "error/%"},
	}
	for _, c := range tab7Configs {
		dsReal, err := loadTab7Dataset(c.ds, o.scale(c.scale), c.featDim)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{4, 8} {
			if k > len(dsReal.TrainIdx) {
				continue
			}
			dev := bigDevice()
			s, err := core.BuildSAGE(dsReal, core.Options{
				Seed: 7, Hidden: 64, Layers: 1, Fanouts: []int{10},
				Aggregator: nn.LSTM, FixedK: k, Device: dev,
			})
			if err != nil {
				return nil, err
			}
			st, err := s.Engine.TrainEpochMicro()
			if err != nil {
				return nil, err
			}
			// the estimator predicts the largest micro-batch; compare with
			// the device's observed peak over the epoch
			errPct := 100 * (float64(st.MaxEstimate) - float64(st.PeakBytes)) / float64(st.PeakBytes)
			o.logf("tab7 %s k=%d err=%.2f%%", c.ds, k, errPct)
			t.AddRow(c.ds, fmtI(k), fmtMiB(st.MaxEstimate), fmtMiB(st.PeakBytes), fmtF(errPct, 2))
		}
	}
	return []*Table{t}, nil
}

// loadTab7Dataset loads a dataset with an optional feature-dim override
// (the LSTM's hidden size equals the input width, so wide-feature datasets
// are narrowed; see loadDatasetWithDim).
func loadTab7Dataset(name string, scale float64, featDim int) (*dataset.Dataset, error) {
	if featDim > 0 {
		return loadDatasetWithDim(name, scale, featDim)
	}
	return loadDataset(name, scale)
}
