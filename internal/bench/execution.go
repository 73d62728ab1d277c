package bench

import (
	"fmt"
	"math"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/nn"
)

// loadDatasetWithDim generates a registered dataset at a scale with an
// overridden feature dimension. The recurrent-aggregator experiments scale
// the feature width down because the LSTM's hidden size equals the input
// width (the DGL convention), and the pure-Go substrate has no BLAS to
// absorb a 1433-wide recurrence (see EXPERIMENTS.md).
func loadDatasetWithDim(name string, scale float64, featDim int) (*dataset.Dataset, error) {
	cfg, err := dataset.Config(name)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s@%.4f/d%d", name, scale, featDim)
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	cfg.Nodes = int(float64(cfg.Nodes) * scale)
	if cfg.Nodes < cfg.NumClasses*4 {
		cfg.Nodes = cfg.NumClasses * 4
	}
	if cfg.Communities > 0 {
		cfg.Communities = int(float64(cfg.Communities) * scale)
		if cfg.Communities < cfg.NumClasses {
			cfg.Communities = cfg.NumClasses
		}
	}
	cfg.FeatureDim = featDim
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dsCache[key] = d
	return d, nil
}

// bigDevice returns a device large enough that execution experiments never
// OOM; they measure peaks, not walls.
func bigDevice() *device.Device {
	return device.New(64*device.GiB, device.DefaultCostModel())
}

func init() {
	register(&Experiment{
		ID:    "fig4",
		Paper: "Figure 4: training loss and test accuracy of full-batch vs small mini-batch training (GraphSAGE, ogbn-products)",
		Run:   runFig4,
	})
	register(&Experiment{
		ID:    "fig12",
		Paper: "Figure 12: peak memory and per-epoch host-to-device bytes as the number of micro-batches grows (five dataset/model panels)",
		Run:   runFig12,
	})
	register(&Experiment{
		ID:    "fig13",
		Paper: "Figure 13: convergence of full-batch vs 2/4/8 micro-batch training (3-layer GraphSAGE+Mean, ogbn-arxiv)",
		Run:   runFig13,
	})
	register(&Experiment{
		ID:    "tab5",
		Paper: "Table 5: test accuracy of full-batch (DGL) vs Betty micro-batch training across datasets and models",
		Run:   runTab5,
	})
}

func runFig4(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(0.12))
	if err != nil {
		return nil, err
	}
	epochs := o.epochs(60)
	opts := core.Options{Seed: 4, Hidden: 64, Fanouts: []int{5, 10}, LR: 0.01}

	fullOpts := opts
	fullOpts.FixedK = 1
	full, err := core.BuildSAGE(ds, fullOpts)
	if err != nil {
		return nil, err
	}
	mini, err := core.BuildSAGE(ds, opts)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("full batch (%d outputs) vs 16 mini-batches, %d epochs", len(ds.TrainIdx), epochs),
		Columns: []string{"epoch", "full loss", "full test acc", "mini loss", "mini test acc"},
	}
	for e := 1; e <= epochs; e++ {
		fs, err := full.Engine.TrainEpochFull()
		if err != nil {
			return nil, err
		}
		ms, err := mini.Engine.TrainEpochMini(16, uint64(e))
		if err != nil {
			return nil, err
		}
		if e%5 == 0 || e == 1 {
			fa, err := full.Engine.TestAccuracy()
			if err != nil {
				return nil, err
			}
			ma, err := mini.Engine.TestAccuracy()
			if err != nil {
				return nil, err
			}
			o.logf("fig4 epoch %d full=%.3f mini=%.3f", e, fa, ma)
			t.AddRow(fmtI(e), fmtF(fs.Loss, 4), fmtF(fa, 4), fmtF(ms.Loss, 4), fmtF(ma, 4))
		}
	}
	return []*Table{t}, nil
}

// fig12Panel is one dataset/model panel of Figure 12.
type fig12Panel struct {
	panel   string
	ds      string
	scale   float64
	featDim int // 0 keeps the dataset's native width
	layers  int
	hidden  int
	agg     nn.Aggregator
	fanouts []int
}

func fig12Panels() []fig12Panel {
	return []fig12Panel{
		{"a", "ogbn-arxiv", 0.3, 0, 2, 64, nn.Mean, []int{5, 10}},
		{"b", "reddit", 0.3, 0, 4, 32, nn.Mean, []int{5, 10, 10, 10}},
		{"c", "pubmed", 1.0, 64, 2, 32, nn.LSTM, []int{3, 5}},
		{"d", "cora", 1.0, 64, 2, 32, nn.LSTM, []int{3, 5}},
		{"e", "ogbn-products", 0.3, 0, 1, 64, nn.LSTM, []int{10}},
	}
}

func runFig12(o Options) ([]*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "peak device memory and per-epoch host-to-device bytes vs number of micro-batches (Betty partitioning)",
		Columns: []string{"panel", "dataset", "model", "batches", "peak/MiB", "H2D bytes", "redundancy"},
	}
	for _, p := range fig12Panels() {
		var ds *dataset.Dataset
		var err error
		if p.featDim > 0 {
			ds, err = loadDatasetWithDim(p.ds, o.scale(p.scale), p.featDim)
		} else {
			ds, err = loadDataset(p.ds, o.scale(p.scale))
		}
		if err != nil {
			return nil, err
		}
		model := fmt.Sprintf("%d-layer SAGE %s", p.layers, p.agg)
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			if k > len(ds.TrainIdx) {
				continue
			}
			dev := bigDevice()
			s, err := core.BuildSAGE(ds, core.Options{
				Seed: 12, Hidden: p.hidden, Layers: p.layers,
				Fanouts: p.fanouts, Aggregator: p.agg, FixedK: k, Device: dev,
			})
			if err != nil {
				return nil, err
			}
			st, err := s.Engine.TrainEpochMicro()
			if err != nil {
				return nil, err
			}
			o.logf("fig12 %s k=%d peak=%s h2d=%d", p.panel, k, fmtMiB(st.PeakBytes), st.H2DBytes)
			t.AddRow(p.panel, p.ds, model, fmtI(k), fmtMiB(st.PeakBytes),
				fmtBytes(st.H2DBytes), fmtI(st.Redundancy))
		}
	}
	return []*Table{t}, nil
}

func runFig13(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-arxiv", o.scale(0.15))
	if err != nil {
		return nil, err
	}
	epochs := o.epochs(40)
	counts := []int{1, 2, 4, 8}
	setups := make([]*core.Setup, len(counts))
	for i, k := range counts {
		s, err := core.BuildSAGE(ds, core.Options{
			Seed: 13, Hidden: 64, Fanouts: []int{3, 5, 10}, Layers: 3,
			Aggregator: nn.Mean, FixedK: k, LR: 0.01,
		})
		if err != nil {
			return nil, err
		}
		setups[i] = s
	}
	t := &Table{
		ID:      "fig13",
		Title:   fmt.Sprintf("test accuracy by epoch, 3-layer GraphSAGE+Mean, %d epochs", epochs),
		Columns: []string{"epoch", "full batch", "2 micro-batches", "4 micro-batches", "8 micro-batches"},
	}
	for e := 1; e <= epochs; e++ {
		row := []string{fmtI(e)}
		record := e%4 == 0 || e == 1
		for _, s := range setups {
			if _, err := s.Engine.TrainEpochMicro(); err != nil {
				return nil, err
			}
			if record {
				acc, err := s.Engine.TestAccuracy()
				if err != nil {
					return nil, err
				}
				row = append(row, fmtF(acc, 4))
			}
		}
		if record {
			o.logf("fig13 epoch %d: %v", e, row[1:])
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}

// tab5Config is one dataset/model row of Table 5.
type tab5Config struct {
	ds    string
	scale float64
	model string // "sage" or "gat"
}

func tab5Configs() []tab5Config {
	return []tab5Config{
		{"cora", 1.0, "sage"},
		{"cora", 1.0, "gat"},
		{"pubmed", 0.5, "sage"},
		{"pubmed", 0.5, "gat"},
		{"reddit", 0.1, "sage"},
		{"reddit", 0.1, "gat"},
		{"ogbn-arxiv", 0.15, "sage"},
		{"ogbn-arxiv", 0.15, "gat"},
		// GAT cannot use ogbn-products in the paper either
		{"ogbn-products", 0.12, "sage"},
	}
}

func runTab5(o Options) ([]*Table, error) {
	epochs := o.epochs(25)
	const runs = 2
	t := &Table{
		ID:      "tab5",
		Title:   fmt.Sprintf("test accuracy %% (mean ± std over %d seeds, %d epochs): full batch vs Betty micro-batch", runs, epochs),
		Columns: []string{"dataset", "model", "full-batch acc", "betty acc", "betty K"},
	}
	for _, c := range tab5Configs() {
		var fullAcc, bettyAcc []float64
		bettyK := 0
		for seedIdx := 0; seedIdx < runs; seedIdx++ {
			seed := uint64(100 + seedIdx)
			for _, mode := range []string{"full", "betty"} {
				ds, err := loadDataset(c.ds, o.scale(c.scale))
				if err != nil {
					return nil, err
				}
				opts := core.Options{Seed: seed, Hidden: 64, Fanouts: []int{5, 10}, LR: 0.01}
				if c.model == "gat" {
					opts.Hidden = 16
					opts.Heads = 2
				}
				if mode == "full" {
					opts.FixedK = 1
				} else {
					opts.FixedK = 4
				}
				var s *core.Setup
				if c.model == "gat" {
					s, err = core.BuildGAT(ds, opts)
				} else {
					s, err = core.BuildSAGE(ds, opts)
				}
				if err != nil {
					return nil, err
				}
				for e := 0; e < epochs; e++ {
					st, err := s.Engine.TrainEpochMicro()
					if err != nil {
						return nil, err
					}
					if mode == "betty" {
						bettyK = st.K
					}
				}
				acc, err := s.Engine.TestAccuracy()
				if err != nil {
					return nil, err
				}
				if mode == "full" {
					fullAcc = append(fullAcc, 100*acc)
				} else {
					bettyAcc = append(bettyAcc, 100*acc)
				}
			}
		}
		o.logf("tab5 %s/%s full=%s betty=%s", c.ds, c.model, meanStd(fullAcc), meanStd(bettyAcc))
		t.AddRow(c.ds, c.model, meanStd(fullAcc), meanStd(bettyAcc), fmtI(bettyK))
	}
	return []*Table{t}, nil
}

// meanStd renders mean ± std of a sample.
func meanStd(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	return fmt.Sprintf("%.2f ± %.2f", mean, math.Sqrt(v))
}
