// Package dataset synthesizes the training datasets of the paper's Table 4.
// The real datasets (Cora, Pubmed, Reddit, ogbn-arxiv, ogbn-products) are
// not available offline, so each is replaced by a generated graph that
// preserves the properties Betty's behaviour depends on:
//
//   - a heavy-tailed (power-law) in-degree distribution, which drives the
//     in-degree bucketing explosion and partition imbalance of §4.4.2;
//   - community structure with homophily, which is what makes REG
//     partitioning find low-redundancy splits (§4.3);
//   - class-correlated features, so models genuinely learn and the
//     accuracy/convergence experiments (Table 5, Figure 13) are meaningful.
//
// Node counts are scaled to laptop memory while keeping each dataset's
// relative size, density, and feature width.
package dataset

import (
	"fmt"
	"math"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// Dataset is a ready-to-train node classification problem.
type Dataset struct {
	Name  string
	Graph *graph.Graph
	// Features is the dense in-RAM feature matrix (NumNodes x FeatureDim).
	// It may be nil when Source is set: an out-of-core dataset never
	// materializes the full matrix.
	Features *tensor.Tensor
	// Source, when non-nil, overrides Features as the row provider for
	// every feature gather. When nil, gathers read the in-RAM matrix.
	Source     FeatureSource
	Labels     []int32 // NumNodes, in [0, NumClasses)
	NumClasses int
	TrainIdx   []int32
	ValIdx     []int32
	TestIdx    []int32
}

// FeatureSource returns the active row provider: Source when set,
// otherwise the in-RAM matrix.
func (d *Dataset) FeatureSource() FeatureSource {
	if d.Source != nil {
		return d.Source
	}
	return AsSource(d.Features)
}

// FeatureDim returns the width of the feature matrix.
func (d *Dataset) FeatureDim() int { return d.FeatureSource().Dim() }

// GatherFeatures copies the rows for the given global node IDs into a new
// tensor — the host-side feature fetch for a batch.
func (d *Dataset) GatherFeatures(nids []int32) (*tensor.Tensor, error) {
	out := tensor.New(len(nids), d.FeatureDim())
	if err := d.GatherFeaturesInto(out, nids); err != nil {
		return nil, err
	}
	return out, nil
}

// GatherFeaturesInto copies the rows for the given global node IDs into
// out, which must be len(nids) x FeatureDim. The training hot path stages
// the fetch into a pooled tape tensor so the per-batch feature copy stops
// allocating. An out-of-core source can fail (I/O error, corrupt shard);
// the error is propagated, never papered over with zero rows.
func (d *Dataset) GatherFeaturesInto(out *tensor.Tensor, nids []int32) error {
	return d.FeatureSource().GatherInto(out, nids)
}

// HostBytes returns the dataset's host-memory footprint: the resident
// feature bytes, labels, and graph adjacency. Betty's heterogeneous-memory
// layout keeps all of this in host memory and moves only per-micro-batch
// slices to the device, which is why the device budget can be far below
// the dataset size. With a disk-backed source the feature term is the
// shard cache's current residency, not the dataset size, and training and
// serving additionally hold one batch's input frontier on the host while
// the batch runs (Stage); that term is per batch, so training counts it in
// core.EpochStats.HostBytes, not here.
func (d *Dataset) HostBytes() int64 {
	return d.FeatureSource().ResidentBytes() + int64(len(d.Labels))*4 + d.Graph.Bytes()
}

// GatherLabels copies the labels for the given global node IDs.
func (d *Dataset) GatherLabels(nids []int32) []int32 {
	out := make([]int32, len(nids))
	for i, nid := range nids {
		out[i] = d.Labels[nid]
	}
	return out
}

// GenConfig parameterizes the synthetic generator.
type GenConfig struct {
	Name string
	// Nodes and AvgDegree set the graph size; Edges ≈ Nodes*AvgDegree.
	Nodes     int
	AvgDegree float64
	// PowerLawExp is the Pareto tail exponent of the degree weights;
	// smaller means heavier tail (natural graphs: ~2-3).
	PowerLawExp float64
	// FeatureDim and NumClasses shape the learning problem.
	FeatureDim int
	NumClasses int
	// Homophily is the probability an edge stays inside its community.
	Homophily float64
	// Communities is the number of connectivity clusters (default:
	// NumClasses). Real graphs have far more clusters than label classes;
	// labels are assigned as community mod NumClasses. Fine communities
	// keep multi-hop neighborhoods local, which is what gives
	// redundancy-aware partitioning room to work.
	Communities int
	// NoiseStd is the feature noise around the class centroid.
	NoiseStd float64
	// LabelNoise is the fraction of nodes whose label is replaced with a
	// uniformly random class. It sets the achievable accuracy ceiling to
	// about (1 - LabelNoise) + LabelNoise/NumClasses, mirroring the
	// irreducible error of the real datasets (e.g. ogbn-arxiv tops out
	// near 72%).
	LabelNoise float64
	// TrainFrac and ValFrac set the split sizes (defaults 0.5 and 0.25);
	// the registry mirrors each real dataset's official fractions, e.g.
	// ogbn-products' 8% train split, because the train split is the full
	// batch Betty partitions.
	TrainFrac, ValFrac float64
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	if c.Nodes <= 0 || c.FeatureDim <= 0 || c.NumClasses <= 0 {
		return fmt.Errorf("dataset: non-positive size in %+v", c)
	}
	if c.NumClasses > c.Nodes {
		return fmt.Errorf("dataset: more classes than nodes")
	}
	if c.AvgDegree <= 0 {
		return fmt.Errorf("dataset: average degree must be positive")
	}
	if c.Homophily < 0 || c.Homophily > 1 {
		return fmt.Errorf("dataset: homophily out of [0,1]")
	}
	if c.LabelNoise < 0 || c.LabelNoise > 1 {
		return fmt.Errorf("dataset: label noise out of [0,1]")
	}
	return nil
}

// Generate synthesizes a dataset: a degree-corrected stochastic block model
// (Chung-Lu weights with community bias) plus Gaussian class-centroid
// features and a 50/25/25 split.
func Generate(cfg GenConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PowerLawExp <= 0 {
		cfg.PowerLawExp = 2.5
	}
	if cfg.NoiseStd <= 0 {
		cfg.NoiseStd = 1.0
	}
	r := rng.New(cfg.Seed)
	n := cfg.Nodes
	numComm := cfg.Communities
	if numComm <= 0 {
		numComm = cfg.NumClasses
	}
	if numComm > n {
		numComm = n
	}

	// communities drive connectivity; labels are community mod classes,
	// assigned round-robin over a shuffle so both are balanced but not
	// id-contiguous
	comm := make([]int32, n)
	labels := make([]int32, n)
	perm := r.Perm(n)
	for pos, node := range perm {
		comm[node] = int32(pos % numComm)
		labels[node] = comm[node] % int32(cfg.NumClasses)
	}

	// power-law degree weights, capped to avoid one node owning the graph
	weights := make([]float64, n)
	capW := math.Max(10, float64(n)/20)
	for i := range weights {
		w := r.Pareto(1, cfg.PowerLawExp)
		if w > capW {
			w = capW
		}
		weights[i] = w
	}

	// alias tables: one global, one per community
	global := newAlias(weights, nil)
	byComm := make([]*alias, numComm)
	commNodes := make([][]int32, numComm)
	for i := 0; i < n; i++ {
		commNodes[comm[i]] = append(commNodes[comm[i]], int32(i))
	}
	for c := 0; c < numComm; c++ {
		byComm[c] = newAlias(weights, commNodes[c])
	}

	// draw edges: source weight-proportional, destination homophilous
	m := int(float64(n) * cfg.AvgDegree)
	src := make([]int32, 0, m)
	dst := make([]int32, 0, m)
	for e := 0; e < m; e++ {
		u := global.draw(r)
		var v int32
		if r.Float64() < cfg.Homophily {
			v = byComm[comm[u]].draw(r)
		} else {
			v = global.draw(r)
		}
		if u == v {
			continue
		}
		src = append(src, u)
		dst = append(dst, v)
	}
	g, err := graph.FromEdges(int32(n), src, dst)
	if err != nil {
		return nil, err
	}

	// flip labels after features are anchored to the true community, so
	// the graph and features stay coherent while accuracy gets a ceiling
	trueLabels := append([]int32(nil), labels...)

	// features: class centroid + noise
	feats := tensor.New(n, cfg.FeatureDim)
	centroids := tensor.New(cfg.NumClasses, cfg.FeatureDim)
	centroids.Randn(r, 1.0)
	for i := 0; i < n; i++ {
		c := centroids.Row(int(trueLabels[i]))
		row := feats.Row(i)
		for j := range row {
			row[j] = c[j] + float32(r.Norm()*float64(cfg.NoiseStd))
		}
	}
	if cfg.LabelNoise > 0 {
		for i := 0; i < n; i++ {
			if r.Float64() < cfg.LabelNoise {
				labels[i] = r.Int31n(int32(cfg.NumClasses))
			}
		}
	}

	// split over a fresh shuffle (default 50/25/25)
	trainFrac, valFrac := cfg.TrainFrac, cfg.ValFrac
	if trainFrac <= 0 {
		trainFrac = 0.5
	}
	if valFrac <= 0 {
		valFrac = 0.25
	}
	if trainFrac+valFrac >= 1 {
		return nil, fmt.Errorf("dataset: train+val fractions %v+%v leave no test split", trainFrac, valFrac)
	}
	split := r.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	nVal := int(float64(n) * valFrac)
	if nVal < 1 {
		nVal = 1
	}
	d := &Dataset{
		Name:       cfg.Name,
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: cfg.NumClasses,
		TrainIdx:   append([]int32(nil), split[:nTrain]...),
		ValIdx:     append([]int32(nil), split[nTrain:nTrain+nVal]...),
		TestIdx:    append([]int32(nil), split[nTrain+nVal:]...),
	}
	return d, nil
}

// alias is a Walker alias table for O(1) weighted sampling, optionally
// restricted to a subset of nodes.
type alias struct {
	nodes []int32 // nil means identity over [0, len(prob))
	prob  []float64
	alt   []int32
}

func newAlias(weights []float64, subset []int32) *alias {
	var idx []int32
	if subset != nil {
		idx = subset
	} else {
		idx = make([]int32, len(weights))
		for i := range idx {
			idx[i] = int32(i)
		}
	}
	n := len(idx)
	a := &alias{nodes: idx, prob: make([]float64, n), alt: make([]int32, n)}
	var total float64
	for _, v := range idx {
		total += weights[v]
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, v := range idx {
		scaled[i] = weights[v] * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alt[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, rest := range [][]int32{small, large} {
		for _, i := range rest {
			a.prob[i] = 1
			a.alt[i] = i
		}
	}
	return a
}

func (a *alias) draw(r *rng.RNG) int32 {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return a.nodes[i]
	}
	return a.nodes[a.alt[i]]
}
