package dataset

import (
	"fmt"
	"sort"
)

// registry maps dataset names to generator configurations. Node counts are
// scaled from Table 4 to laptop memory; feature widths, class counts, and
// relative densities match the real datasets.
//
//	real:   Cora 2.7k/10.6k   Pubmed 19.7k/44k   Reddit 233k/114.6M
//	        ogbn-arxiv 169k/2.3M   ogbn-products 2.45M/61.9M
//
// Split fractions mirror each real dataset's official splits, because the
// training split is the full batch Betty partitions: Planetoid's small
// labeled sets for Cora/Pubmed, ~66% for Reddit, ~54% for ogbn-arxiv, and
// ogbn-products' 8% train split (196,615 of 2.45M — the paper's Figure 4
// full batch).
var registry = map[string]GenConfig{
	"cora": {
		Name: "cora", Nodes: 2708, AvgDegree: 3.9, FeatureDim: 1433,
		NumClasses: 7, Homophily: 0.85, PowerLawExp: 2.8, Seed: 0xC07A,
		TrainFrac: 140.0 / 2708, ValFrac: 500.0 / 2708, Communities: 40, LabelNoise: 0.21,
	},
	"pubmed": {
		Name: "pubmed", Nodes: 19717, AvgDegree: 2.25, FeatureDim: 500,
		NumClasses: 3, Homophily: 0.8, PowerLawExp: 2.6, Seed: 0x9B3D,
		TrainFrac: 0.01, ValFrac: 0.025, Communities: 60, LabelNoise: 0.26,
	},
	// Reddit is the density outlier (avg degree ~492); scaled to 20k nodes
	// with avg degree 50 it remains the densest graph by an order of
	// magnitude.
	"reddit": {
		Name: "reddit", Nodes: 20000, AvgDegree: 50, FeatureDim: 602,
		NumClasses: 41, Homophily: 0.85, PowerLawExp: 2.1, Seed: 0x4EDD17,
		TrainFrac: 0.66, ValFrac: 0.1, Communities: 120, LabelNoise: 0.05,
	},
	"ogbn-arxiv": {
		Name: "ogbn-arxiv", Nodes: 40000, AvgDegree: 13.7, FeatureDim: 128,
		NumClasses: 40, Homophily: 0.85, PowerLawExp: 2.3, Seed: 0xA4817,
		TrainFrac: 0.54, ValFrac: 0.17, Communities: 160, LabelNoise: 0.29,
	},
	"ogbn-products": {
		Name: "ogbn-products", Nodes: 60000, AvgDegree: 25, FeatureDim: 100,
		NumClasses: 47, Homophily: 0.9, PowerLawExp: 2.2, Seed: 0x9406,
		TrainFrac: 0.08, ValFrac: 0.02, Communities: 300, LabelNoise: 0.24,
	},
}

// Names returns the registered dataset names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config returns the generator configuration for a registered dataset.
func Config(name string) (GenConfig, error) {
	cfg, ok := registry[name]
	if !ok {
		return GenConfig{}, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	return cfg, nil
}

// Load generates a registered dataset at full (scaled) size.
func Load(name string) (*Dataset, error) {
	cfg, err := Config(name)
	if err != nil {
		return nil, err
	}
	return Generate(cfg)
}

// LoadScaled generates a registered dataset shrunk by the given factor
// (0 < scale <= 1), keeping density and dimensions. Tests use small scales.
func LoadScaled(name string, scale float64) (*Dataset, error) {
	cfg, err := ScaledConfig(name, scale)
	if err != nil {
		return nil, err
	}
	return Generate(cfg)
}

// ScaledConfig returns the generator configuration LoadScaled generates:
// the registered one with its node and community counts multiplied by
// scale (0 < scale <= 1), each floored so every class keeps four nodes and
// one community. Scale 1 returns Config(name) unchanged.
func ScaledConfig(name string, scale float64) (GenConfig, error) {
	cfg, err := Config(name)
	if err != nil {
		return GenConfig{}, err
	}
	if scale <= 0 || scale > 1 {
		return GenConfig{}, fmt.Errorf("dataset: scale %v out of (0,1]", scale)
	}
	cfg.Nodes = int(float64(cfg.Nodes) * scale)
	if cfg.Nodes < cfg.NumClasses*4 {
		cfg.Nodes = cfg.NumClasses * 4
	}
	// keep the community granularity (nodes per community) constant
	if cfg.Communities > 0 {
		cfg.Communities = int(float64(cfg.Communities) * scale)
		if cfg.Communities < cfg.NumClasses {
			cfg.Communities = cfg.NumClasses
		}
	}
	return cfg, nil
}
