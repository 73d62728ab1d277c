package dataset

import (
	"math"
	"testing"

	"betty/internal/rng"
)

func smallCfg(seed uint64) GenConfig {
	return GenConfig{
		Name: "test", Nodes: 2000, AvgDegree: 8, FeatureDim: 16,
		NumClasses: 5, Homophily: 0.8, PowerLawExp: 2.3, Seed: seed,
	}
}

func TestGenerateBasics(t *testing.T) {
	d, err := Generate(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", d.Graph.NumNodes())
	}
	if d.Features.Rows() != 2000 || d.Features.Cols() != 16 {
		t.Fatal("feature shape wrong")
	}
	if len(d.Labels) != 2000 {
		t.Fatal("label length wrong")
	}
	for _, l := range d.Labels {
		if l < 0 || int(l) >= d.NumClasses {
			t.Fatalf("label %d out of range", l)
		}
	}
	// edges approximately nodes*avgdeg (minus dropped self loops)
	e := float64(d.Graph.NumEdges())
	if e < 14000 || e > 16000 {
		t.Fatalf("edge count %v far from target 16000", e)
	}
}

func TestGenerateSplitsDisjointAndCovering(t *testing.T) {
	d, err := Generate(smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]int{}
	for _, idx := range [][]int32{d.TrainIdx, d.ValIdx, d.TestIdx} {
		for _, v := range idx {
			seen[v]++
		}
	}
	if len(seen) != 2000 {
		t.Fatalf("splits cover %d of 2000 nodes", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d appears in %d splits", v, c)
		}
	}
	if len(d.TrainIdx) != 1000 || len(d.ValIdx) != 500 {
		t.Fatalf("split sizes %d/%d/%d", len(d.TrainIdx), len(d.ValIdx), len(d.TestIdx))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	for i := range a.Features.Data {
		if math.Float32bits(a.Features.Data[i]) != math.Float32bits(b.Features.Data[i]) {
			t.Fatal("same seed produced different features")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := smallCfg(1)
	bad.Nodes = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = smallCfg(1)
	bad.Homophily = 1.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad homophily accepted")
	}
	bad = smallCfg(1)
	bad.NumClasses = 10000
	if _, err := Generate(bad); err == nil {
		t.Fatal("more classes than nodes accepted")
	}
}

// The in-degree distribution must be heavy-tailed: the max in-degree should
// far exceed the average, and the "last bucket" of an M=10 bucketing should
// hold a disproportionate share of edges (the §4.4.2 explosion).
func TestPowerLawDegreeTail(t *testing.T) {
	d, err := Generate(smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(d.Graph.NumEdges()) / float64(d.Graph.NumNodes())
	maxDeg := d.Graph.MaxInDegree()
	if float64(maxDeg) < 6*avg {
		t.Fatalf("max in-degree %d vs avg %.1f: tail too light", maxDeg, avg)
	}
	hist := d.Graph.InDegreeHistogram(10)
	last := hist[10]
	if last == 0 {
		t.Fatal("no nodes in the saturated bucket")
	}
}

// Homophily: the fraction of intra-class edges must be far above the 1/C
// random baseline, since this is what makes communities separable.
func TestHomophily(t *testing.T) {
	d, err := Generate(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := d.Graph.Edges()
	intra := 0
	for i := range src {
		if d.Labels[src[i]] == d.Labels[dst[i]] {
			intra++
		}
	}
	frac := float64(intra) / float64(len(src))
	baseline := 1.0 / float64(d.NumClasses)
	if frac < 3*baseline {
		t.Fatalf("intra-class edge fraction %.3f too close to random %.3f", frac, baseline)
	}
}

// Features must be class-separable: a nearest-centroid classifier on the
// generated features should beat random guessing by a wide margin.
func TestFeaturesAreLearnable(t *testing.T) {
	d, err := Generate(smallCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	// estimate centroids from train split
	dim := d.FeatureDim()
	cent := make([][]float64, d.NumClasses)
	count := make([]int, d.NumClasses)
	for i := range cent {
		cent[i] = make([]float64, dim)
	}
	for _, v := range d.TrainIdx {
		c := d.Labels[v]
		count[c]++
		row := d.Features.Row(int(v))
		for j, x := range row {
			cent[c][j] += float64(x)
		}
	}
	for c := range cent {
		for j := range cent[c] {
			cent[c][j] /= float64(count[c])
		}
	}
	correct := 0
	for _, v := range d.TestIdx {
		row := d.Features.Row(int(v))
		best, bestD := 0, math.Inf(1)
		for c := range cent {
			var dist float64
			for j, x := range row {
				diff := float64(x) - cent[c][j]
				dist += diff * diff
			}
			if dist < bestD {
				bestD, best = dist, c
			}
		}
		if int32(best) == d.Labels[v] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(d.TestIdx))
	if acc < 0.6 {
		t.Fatalf("nearest-centroid accuracy %.2f; features not separable", acc)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"cora", "ogbn-arxiv", "ogbn-products", "pubmed", "reddit"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
	if _, err := Config("cora"); err != nil {
		t.Fatal(err)
	}
	if _, err := Config("imagenet"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadScaled(t *testing.T) {
	d, err := LoadScaled("ogbn-arxiv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() != 800 {
		t.Fatalf("scaled nodes = %d, want 800", d.Graph.NumNodes())
	}
	if d.FeatureDim() != 128 || d.NumClasses != 40 {
		t.Fatal("scaling changed dims")
	}
	if _, err := LoadScaled("ogbn-arxiv", 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := LoadScaled("nope", 0.5); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGatherHelpers(t *testing.T) {
	d, err := Generate(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	nids := []int32{5, 0, 9}
	f, err := d.GatherFeatures(nids)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 3 || f.Cols() != d.FeatureDim() {
		t.Fatal("gathered feature shape wrong")
	}
	if _, err := d.GatherFeatures([]int32{int32(d.Features.Rows())}); err == nil {
		t.Fatal("out-of-range gather accepted")
	}
	row, err := gatherOne(d.FeatureSource(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if math.Float32bits(row[j]) != math.Float32bits(d.Features.At(5, j)) {
			t.Fatal("gathered row mismatch")
		}
	}
	for i, nid := range nids {
		for j := 0; j < f.Cols(); j++ {
			if math.Float32bits(f.At(i, j)) != math.Float32bits(d.Features.At(int(nid), j)) {
				t.Fatal("gathered features mismatch")
			}
		}
	}
	ls := d.GatherLabels(nids)
	for i, nid := range nids {
		if ls[i] != d.Labels[nid] {
			t.Fatal("gathered labels mismatch")
		}
	}
}

// Alias sampling must reproduce the weight distribution approximately.
func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 4, 8}
	a := newAlias(weights, nil)
	r := rng.New(8)
	counts := make([]int, 4)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[a.draw(r)]++
	}
	total := 15.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("weight %d: frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestAliasSubset(t *testing.T) {
	weights := []float64{1, 1, 1, 1, 1}
	subset := []int32{1, 3}
	a := newAlias(weights, subset)
	r := rng.New(9)
	for i := 0; i < 1000; i++ {
		v := a.draw(r)
		if v != 1 && v != 3 {
			t.Fatalf("subset alias drew %d", v)
		}
	}
}

func TestHostBytes(t *testing.T) {
	d, err := Generate(smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	hb := d.HostBytes()
	featBytes := int64(d.Features.Len()) * 4
	if hb <= featBytes {
		t.Fatalf("HostBytes %d should exceed feature bytes %d (labels+graph)", hb, featBytes)
	}
	if hb <= 0 {
		t.Fatal("non-positive host footprint")
	}
}
