package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/reg"
	"betty/internal/sample"
	"betty/internal/tensor"
	"betty/internal/train"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t", Nodes: 800, AvgDegree: 10, FeatureDim: 24,
		NumClasses: 5, Homophily: 0.8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildSAGEDefaults(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Model.Config()
	if cfg.InDim != 24 || cfg.OutDim != 5 || cfg.Layers != 2 || cfg.Hidden != 64 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if s.Engine.Partitioner.Name() != "betty" {
		t.Fatal("default partitioner is not betty")
	}
}

// Build rejects an unknown architecture and an unknown SAGE aggregator, and
// gives the model one layer per fanout.
func TestBuildValidation(t *testing.T) {
	d := testData(t)
	if _, err := Build(d, "gin", "mean", Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Build(d, "sage", "max", Options{}); err == nil {
		t.Fatal("unknown aggregator accepted")
	}
	for _, arch := range []string{"sage", "gcn", "gat"} {
		s, err := Build(d, arch, "mean", Options{Hidden: 8, Fanouts: []int{3, 4, 5}})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Model.Config().Layers; got != 3 {
			t.Fatalf("%s: %d layers for 3 fanouts", arch, got)
		}
	}
}

func TestTrainEpochMicroFixedK(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 2, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 {
		t.Fatalf("K = %d", st.K)
	}
	if st.Loss <= 0 || st.TrainAcc < 0 || st.TrainAcc > 1 {
		t.Fatalf("bad metrics: %+v", st)
	}
	if st.Redundancy < 0 {
		t.Fatal("negative redundancy")
	}
	if st.InputNodes <= 0 {
		t.Fatal("no input nodes counted")
	}
}

// Micro-batch training must be numerically equivalent to full-batch: after
// one epoch from identical initializations, parameters must match closely.
func TestMicroEqualsFullAfterOneEpoch(t *testing.T) {
	d := testData(t)
	mk := func(k int) *Setup {
		s, err := BuildSAGE(d, Options{Seed: 3, Hidden: 16, Fanouts: []int{5, 5}, FixedK: k})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full := mk(1)
	micro := mk(6)
	if _, err := full.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	if _, err := micro.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	pf, pm := full.Model.Params(), micro.Model.Params()
	for i := range pf {
		for j := range pf[i].Value.Data {
			a, b := float64(pf[i].Value.Data[j]), float64(pm[i].Value.Data[j])
			if math.Abs(a-b) > 1e-4*(1+math.Abs(a)) {
				t.Fatalf("param %d elem %d: full %v vs micro %v", i, j, a, b)
			}
		}
	}
}

func TestMemoryAwarePlanningSelectsK(t *testing.T) {
	d := testData(t)
	// First find the full-batch estimate, then constrain below it.
	s0, err := BuildSAGE(d, Options{Seed: 4, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := s0.Engine.PlanEpoch(d.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}
	capacity := plan.MaxPeak * 3 / 5
	dev := device.New(capacity, device.DefaultCostModel())
	s, err := BuildSAGE(d, Options{Seed: 4, Hidden: 16, Fanouts: []int{5, 5}, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.K < 2 {
		t.Fatalf("planner chose K=%d under a %d-byte budget", st.K, capacity)
	}
	// The search is pinned by its result, not its shape: K, groups and the
	// largest estimate are the first-fit walk's, reached from the bound.
	full, plan, err := s.Engine.PlanEpoch(d.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}
	refK, refGroups, refPeak := firstFitWalk(t, s.Engine, full, capacity)
	if st.K != refK || plan.K != refK || st.MaxEstimate != refPeak || !reflect.DeepEqual(plan.Groups, refGroups) {
		t.Fatalf("planner chose K=%d (max estimate %d); the first-fit walk K=%d (%d)", st.K, st.MaxEstimate, refK, refPeak)
	}
	if plan.LowerBound < 1 || st.PlanAttempts != st.K-plan.LowerBound+1 {
		t.Fatalf("attempts %d, want K-bound+1 with K=%d bound=%d", st.PlanAttempts, st.K, plan.LowerBound)
	}
	if st.PeakBytes > capacity {
		t.Fatalf("measured peak %d exceeded capacity %d", st.PeakBytes, capacity)
	}
}

// firstFitWalk is the search memory.Planner.Plan replaced, kept as the
// reference: K = 1, 2, 3, ... with a from-scratch PartitionBatch per attempt,
// stopping at the first K whose largest estimate fits.
func firstFitWalk(t *testing.T, e *Engine, full []*graph.Block, capacity int64) (int, [][]int32, int64) {
	t.Helper()
	last := full[len(full)-1]
	for k := 1; k <= last.NumDst; k++ {
		groups := [][]int32{make([]int32, last.NumDst)}
		for i := range groups[0] {
			groups[0][i] = int32(i)
		}
		if k > 1 {
			var err error
			if groups, err = e.Partitioner.PartitionBatch(last, k); err != nil {
				t.Fatal(err)
			}
		}
		var peak int64
		for _, sel := range groups {
			micro, err := graph.SliceBatch(full, sel)
			if err != nil {
				t.Fatal(err)
			}
			est, err := memory.Estimate(micro, e.Spec)
			if err != nil {
				t.Fatal(err)
			}
			peak = max(peak, est.Peak())
		}
		if peak+int64(float64(peak)*e.SafetyMargin) <= capacity {
			return k, groups, peak
		}
	}
	t.Fatal("first-fit walk found no K")
	return 0, nil, 0
}

func TestFullBatchOOMsWhereBettyFits(t *testing.T) {
	d := testData(t)
	s0, err := BuildSAGE(d, Options{Seed: 5, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := s0.Engine.PlanEpoch(d.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}
	capacity := plan.MaxPeak / 2

	// full-batch training on the small device must OOM
	devFull := device.New(capacity, device.DefaultCostModel())
	full, err := BuildSAGE(d, Options{Seed: 5, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 1, Device: devFull})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Engine.TrainEpochFull(); !errors.Is(err, device.ErrOOM) {
		t.Fatalf("full batch should OOM, got %v", err)
	}

	// Betty on the same budget must fit
	devBetty := device.New(capacity, device.DefaultCostModel())
	betty, err := BuildSAGE(d, Options{Seed: 5, Hidden: 16, Fanouts: []int{5, 5}, Device: devBetty})
	if err != nil {
		t.Fatal(err)
	}
	st, err := betty.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatalf("betty OOMed where it should fit: %v", err)
	}
	if st.K < 2 {
		t.Fatal("betty did not partition")
	}
}

func TestTrainEpochMini(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 6, Hidden: 16, Fanouts: []int{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Engine.TrainEpochMini(4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 4 || st.Loss <= 0 {
		t.Fatalf("bad mini epoch: %+v", st)
	}
	if st.InputNodes <= 0 {
		t.Fatal("mini epoch counted no inputs")
	}
	if _, err := s.Engine.TrainEpochMini(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// Mini-batches re-expand shared neighbors, so for equal K they must load
// at least as many first-layer inputs as sliced micro-batches (Table 6).
func TestMiniLoadsMoreInputsThanMicro(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 7, Hidden: 16, Fanouts: []int{8, 8}, FixedK: 8})
	if err != nil {
		t.Fatal(err)
	}
	micro, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	mini, err := s.Engine.TrainEpochMini(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mini.InputNodes < micro.InputNodes {
		t.Fatalf("mini inputs %d < micro inputs %d", mini.InputNodes, micro.InputNodes)
	}
}

// End-to-end learning: several Betty epochs must beat random-guess accuracy
// clearly on a homophilous dataset.
func TestBettyTrainingLearns(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 8, Hidden: 32, Fanouts: []int{8, 8}, FixedK: 4, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	for epoch := 0; epoch < 12; epoch++ {
		st, err := s.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = st.Loss
	}
	acc, err := s.Engine.TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	guess := 1.0 / float64(d.NumClasses)
	if acc < 3*guess {
		t.Fatalf("test accuracy %.3f barely above guessing %.3f (loss %.3f)", acc, guess, lastLoss)
	}
	if _, err := s.Engine.ValAccuracy(); err != nil {
		t.Fatal(err)
	}
}

// Two engines built identically must produce identical epoch statistics —
// the whole stack (dataset, sampling, partitioning, training) is seeded.
func TestEngineDeterminism(t *testing.T) {
	d := testData(t)
	run := func() []float64 {
		s, err := BuildSAGE(d, Options{Seed: 40, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for e := 0; e < 3; e++ {
			st, err := s.Engine.TrainEpochMicro()
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, st.Loss)
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("epoch %d: losses %v vs %v differ between identical runs", i, a[i], b[i])
		}
	}
}

func TestBaselinePartitionerOverride(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{
		Seed: 9, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4,
		Partitioner: reg.RandomBatch{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine.Partitioner.Name() != "random" {
		t.Fatal("partitioner override ignored")
	}
	if _, err := s.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGATRuns(t *testing.T) {
	d := testData(t)
	s, err := Build(d, "gat", "", Options{Seed: 10, Hidden: 8, Heads: 2, Fanouts: []int{5, 5}, FixedK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Engine.Spec.IsGAT {
		t.Fatal("GAT spec not marked")
	}
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.Loss <= 0 {
		t.Fatalf("GAT loss = %v", st.Loss)
	}
}

// The estimator must equal the measured device peak for every model and
// aggregator — the calibrated constants of memory.Estimate regress here if
// the nn layer op sequences change without updating the estimator.
func TestEstimatorCalibrationAcrossModels(t *testing.T) {
	d := testData(t)
	cases := []struct {
		name  string
		build func(dev *device.Device) (*Setup, error)
	}{
		{"sage-mean", func(dev *device.Device) (*Setup, error) {
			return BuildSAGE(d, Options{Seed: 50, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev, Aggregator: nn.Mean})
		}},
		{"sage-sum", func(dev *device.Device) (*Setup, error) {
			return BuildSAGE(d, Options{Seed: 50, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev, Aggregator: nn.Sum})
		}},
		{"sage-pool", func(dev *device.Device) (*Setup, error) {
			return BuildSAGE(d, Options{Seed: 50, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev, Aggregator: nn.Pool})
		}},
		{"sage-lstm", func(dev *device.Device) (*Setup, error) {
			return BuildSAGE(d, Options{Seed: 50, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev, Aggregator: nn.LSTM})
		}},
		{"gat", func(dev *device.Device) (*Setup, error) {
			return Build(d, "gat", "", Options{Seed: 50, Hidden: 8, Heads: 2, Fanouts: []int{5, 5}, FixedK: 4, Device: dev})
		}},
		{"gcn", func(dev *device.Device) (*Setup, error) {
			return Build(d, "gcn", "", Options{Seed: 50, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev})
		}},
	}
	for _, tc := range cases {
		dev := device.New(8*device.GiB, device.DefaultCostModel())
		s, err := tc.build(dev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st, err := s.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.MaxEstimate != st.PeakBytes {
			t.Fatalf("%s: estimate %d, measured %d", tc.name, st.MaxEstimate, st.PeakBytes)
		}
	}
}

// The estimate is the measured device peak (the Table 7 property; the
// bench records the numbers).
func TestEstimateTracksMeasuredPeak(t *testing.T) {
	d := testData(t)
	dev := device.New(8*device.GiB, device.DefaultCostModel())
	s, err := BuildSAGE(d, Options{Seed: 11, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Engine.TrainEpochMicro()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxEstimate != st.PeakBytes {
		t.Fatalf("estimate %d, measured %d", st.MaxEstimate, st.PeakBytes)
	}
}

// constModel always predicts class 0 and has no parameters, so epoch
// accuracies are exactly computable from the labels.
type constModel struct{ classes int }

func (m constModel) Params() []*tensor.Var { return nil }

func (m constModel) Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	out := tensor.New(blocks[len(blocks)-1].NumDst, m.classes)
	for i := 0; i < out.Rows(); i++ {
		out.Set(i, 0, 1)
	}
	return tensor.Leaf(out)
}

func (m constModel) Config() nn.Config {
	return nn.Config{InDim: 1, Hidden: 1, OutDim: m.classes, Layers: 2}
}

// constEngine builds an engine around constModel over d.
func constEngine(d *dataset.Dataset) *Engine {
	m := constModel{classes: d.NumClasses}
	r := train.NewRunner(m, d, nn.NewAdam(m, 0.01), nil)
	return New(r, sample.New([]int{3, 3}, 5), memory.Spec{Model: m.Config(), OptStatePerParam: 2}, 9)
}

// maskedAccuracy returns the class-0 rate over the labeled subset of seeds
// plus the labeled count — constModel's exact expected accuracy.
func maskedAccuracy(d *dataset.Dataset, seeds []int32) (float64, int) {
	zeros, labeled := 0, 0
	for _, nid := range seeds {
		if d.Labels[nid] < 0 {
			continue
		}
		labeled++
		if d.Labels[nid] == 0 {
			zeros++
		}
	}
	if labeled == 0 {
		return 0, 0
	}
	return float64(zeros) / float64(labeled), labeled
}

// EpochStats.TrainAcc must divide by the labeled-output count, not the seed
// count: with a third of the seeds masked, the old code deflated accuracy
// by exactly that third.
func TestTrainAccCountsLabeledOnlyMicro(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		if i%3 == 0 {
			d.Labels[i] = -1
		}
	}
	eng := constEngine(d)
	eng.FixedK = 2
	seeds := d.TrainIdx[:120]
	st, err := eng.TrainEpochMicroSeeds(seeds)
	if err != nil {
		t.Fatal(err)
	}
	want, labeled := maskedAccuracy(d, seeds)
	if labeled == len(seeds) {
		t.Fatal("fixture has no masked seeds")
	}
	if math.Float64bits(st.TrainAcc) != math.Float64bits(want) {
		t.Fatalf("TrainAcc = %v, want %v over %d labeled of %d seeds", st.TrainAcc, want, labeled, len(seeds))
	}
}

func TestTrainAccCountsLabeledOnlyMini(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		if i%4 == 0 {
			d.Labels[i] = -1
		}
	}
	eng := constEngine(d)
	st, err := eng.TrainEpochMini(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, labeled := maskedAccuracy(d, eng.Runner.Data.TrainIdx)
	if labeled == len(eng.Runner.Data.TrainIdx) {
		t.Fatal("fixture has no masked seeds")
	}
	if math.Float64bits(st.TrainAcc) != math.Float64bits(wantAcc) {
		t.Fatalf("TrainAcc = %v, want %v", st.TrainAcc, wantAcc)
	}
}

// A fully masked epoch must report TrainAcc 0, not NaN.
func TestTrainAccAllMaskedIsZero(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		d.Labels[i] = -1
	}
	eng := constEngine(d)
	eng.FixedK = 1
	st, err := eng.TrainEpochMicroSeeds(d.TrainIdx[:50])
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainAcc != 0 || math.IsNaN(st.TrainAcc) {
		t.Fatalf("TrainAcc = %v for fully masked epoch, want 0", st.TrainAcc)
	}
}
