package train

import (
	"errors"
	"math"
	"testing"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/parallel"
	"betty/internal/rng"
	"betty/internal/sample"
	"betty/internal/tensor"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{
		Name: "t", Nodes: 600, AvgDegree: 8, FeatureDim: 16,
		NumClasses: 4, Homophily: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testRunner(t *testing.T, d *dataset.Dataset, dev *device.Device) *Runner {
	t.Helper()
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: d.FeatureDim(), Hidden: 16, OutDim: d.NumClasses,
		Layers: 2, Aggregator: nn.Mean,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(model, d, nn.NewAdam(model, 0.01), dev)
}

func TestRunMicroBatchNoDevice(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 {
		t.Fatalf("loss = %v", res.Loss)
	}
	if res.Count != 64 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.ActivationBytes <= 0 {
		t.Fatal("no activation bytes recorded")
	}
	if res.PeakBytes != 0 || res.TransferSeconds != 0 {
		t.Fatal("device metrics nonzero without a device")
	}
	// gradients accumulated
	grads := 0
	for _, p := range r.Model.Params() {
		if p.Grad != nil {
			grads++
		}
	}
	if grads == 0 {
		t.Fatal("no gradients accumulated")
	}
}

func TestRunMicroBatchWithDevice(t *testing.T) {
	d := testData(t)
	dev := device.New(device.GiB, device.DefaultCostModel())
	r := testRunner(t, d, dev)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBytes <= 0 {
		t.Fatal("device peak not recorded")
	}
	if res.TransferSeconds <= 0 || res.ComputeSeconds <= 0 {
		t.Fatal("simulated time not recorded")
	}
	// transient buffers freed; resident (params+grads+opt) remain
	params := int64(nn.ParamCount(r.Model))
	wantResident := params*4 + params*4 + params*2*4
	if dev.Used() < wantResident || dev.Used() > wantResident+10*device.AllocGranularity {
		t.Fatalf("used after batch = %d, want about %d (resident only)", dev.Used(), wantResident)
	}
	r.ReleaseResident()
	if dev.Used() != 0 {
		t.Fatalf("used after release = %d", dev.Used())
	}
}

func TestRunMicroBatchOOM(t *testing.T) {
	d := testData(t)
	dev := device.New(64*device.KiB, device.DefaultCostModel())
	r := testRunner(t, d, dev)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:128])
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunMicroBatch(blocks, 1)
	if !errors.Is(err, device.ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	// transient buffers must have been freed on the error path
	live := dev.LiveBuffers()
	for _, b := range live {
		switch b.Label() {
		case "parameters", "gradients", "optimizer-states":
		default:
			t.Fatalf("leaked transient buffer %q", b.Label())
		}
	}
}

func TestStepAppliesAndClears(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{5, 5}, 1)
	blocks, _ := s.Sample(d.Graph, d.TrainIdx[:64])
	if _, err := r.RunMicroBatch(blocks, 1); err != nil {
		t.Fatal(err)
	}
	before := r.Model.Params()[0].Value.Clone()
	r.Step()
	after := r.Model.Params()[0].Value
	changed := false
	for i := range before.Data {
		if math.Float32bits(before.Data[i]) != math.Float32bits(after.Data[i]) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("optimizer step did not change parameters")
	}
	for _, p := range r.Model.Params() {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("gradients not cleared after Step")
			}
		}
	}
}

func TestEvaluate(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{5, 5}, 3)
	acc, err := r.Evaluate(s, d.TestIdx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
	if _, err := r.Evaluate(s, nil, 10); err == nil {
		t.Fatal("empty evaluation accepted")
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	if _, err := r.RunMicroBatch(nil, 1); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Training for a few steps must reduce the loss on a learnable dataset.
func TestLossDecreases(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{8, 8}, 5)
	var first, last float64
	for epoch := 0; epoch < 15; epoch++ {
		blocks, err := s.Sample(d.Graph, d.TrainIdx[:128])
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunMicroBatch(blocks, 1)
		if err != nil {
			t.Fatal(err)
		}
		r.Step()
		if epoch == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// The steady-state training step allocates a fixed handful of closures and
// headers, never tensor storage: the dynamic twin of bettyvet's hotalloc
// analyzer. Measured 47 allocs/step at both worker counts on Go 1.24; the
// bound leaves slack for other toolchains.
func TestStepAllocsBounded(t *testing.T) {
	const maxAllocs = 56
	d, err := dataset.LoadScaled("ogbn-products", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	seeds := d.TrainIdx
	if len(seeds) > 512 {
		seeds = seeds[:512]
	}
	blocks, err := sample.New([]int{5, 10}, 1).Sample(d.Graph, seeds)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewGraphSAGE(nn.Config{
		InDim: d.FeatureDim(), Hidden: 64, OutDim: d.NumClasses,
		Layers: 2, Aggregator: nn.Mean,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(model, d, nn.NewAdam(model, 0.01), nil)
	var stepErr error
	step := func() {
		if _, err := r.RunMicroBatch(blocks, 1); err != nil {
			stepErr = err
		}
		r.Step()
	}
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
		step() // two warm-up steps fill the tape arena and buffer pool
		step()
		got := testing.AllocsPerRun(10, step)
		parallel.SetWorkers(prev)
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if got > maxAllocs {
			t.Errorf("workers=%d: %.0f allocs/step, want <= %d", w, got, maxAllocs)
		}
	}
}

// maskedData returns a dataset where every third node is unlabeled
// (label < 0), the fixture for the masked-accuracy fixes.
func maskedData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := testData(t)
	for i := range d.Labels {
		if i%3 == 0 {
			d.Labels[i] = -1
		}
	}
	return d
}

// constModel is a parameterless Model that always predicts class 0,
// making expected accuracies exactly computable from the labels.
type constModel struct{ classes int }

func (m constModel) Params() []*tensor.Var { return nil }

func (m constModel) Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	out := tensor.New(blocks[len(blocks)-1].NumDst, m.classes)
	for i := 0; i < out.Rows(); i++ {
		out.Set(i, 0, 1)
	}
	return tensor.Leaf(out)
}

func (m constModel) Flops(blocks []*graph.Block) float64 { return 0 }

func (m constModel) Config() nn.Config {
	return nn.Config{InDim: 1, Hidden: 1, OutDim: m.classes, Layers: 2}
}

// Evaluate must score labeled seeds only: with a model that always predicts
// class 0, accuracy is exactly (#labeled seeds with label 0) / (#labeled).
// The old code counted masked seeds as wrong, deflating the denominator.
func TestEvaluateSkipsMaskedLabels(t *testing.T) {
	d := maskedData(t)
	r := NewRunner(constModel{classes: d.NumClasses}, d, nn.NewAdam(constModel{}, 0.01), nil)
	s := sample.New([]int{3, 3}, 11)
	got, err := r.Evaluate(s, d.TestIdx, 64)
	if err != nil {
		t.Fatal(err)
	}
	zeros, labeled := 0, 0
	for _, nid := range d.TestIdx {
		switch {
		case d.Labels[nid] < 0:
		case d.Labels[nid] == 0:
			zeros++
			labeled++
		default:
			labeled++
		}
	}
	want := float64(zeros) / float64(labeled)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Evaluate = %v, want %v (%d/%d labeled)", got, want, zeros, labeled)
	}
}

func TestEvaluateAllMaskedErrors(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		d.Labels[i] = -1
	}
	r := testRunner(t, d, nil)
	s := sample.New([]int{3, 3}, 11)
	if _, err := r.Evaluate(s, d.TestIdx, 64); err == nil {
		t.Fatal("evaluation over fully masked seeds must error")
	}
}

// The chunk-parallel evaluator must return the identical accuracy for any
// worker count (order-independent sampling + integer chunk sums).
func TestEvaluateParallelDeterminism(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{5, 5}, 3)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	want, err := r.Evaluate(s, d.TestIdx, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got, err := r.Evaluate(s, d.TestIdx, 32)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: accuracy %v != serial %v", w, got, want)
		}
	}
}

// RunMicroBatch already masked labels; pin that behaviour with the fixture.
func TestRunMicroBatchMaskedCount(t *testing.T) {
	d := maskedData(t)
	r := NewRunner(constModel{classes: d.NumClasses}, d, nn.NewAdam(constModel{}, 0.01), nil)
	s := sample.New([]int{5, 5}, 1)
	seeds := d.TrainIdx[:90]
	blocks, err := s.Sample(d.Graph, seeds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, nid := range seeds {
		if d.Labels[nid] >= 0 {
			labeled++
		}
	}
	if res.Count != labeled {
		t.Fatalf("Count = %d, want %d labeled of %d seeds", res.Count, labeled, len(seeds))
	}
}
