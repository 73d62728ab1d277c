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
	if res.PeakBytes != 0 {
		t.Fatal("device peak nonzero without a device")
	}
	if res.H2DBytes <= 0 {
		t.Fatal("no host-to-device bytes counted without a device")
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
	if res.H2DBytes <= 0 {
		t.Fatal("host-to-device bytes not counted")
	}
	// transient buffers freed; the resident parameters, gradients and
	// Adam's two states remain, each rounded up by the allocator
	params := int64(nn.ParamCount(r.Model))
	wantResident := 2*device.RoundAlloc(params*4) + device.RoundAlloc(params*2*4)
	if dev.Used() != wantResident {
		t.Fatalf("used after batch = %d, want %d (resident only)", dev.Used(), wantResident)
	}
	r.ReleaseResident()
	if dev.Used() != 0 {
		t.Fatalf("used after release = %d", dev.Used())
	}
}

// ledgerSpy records the device's live buffers when the forward starts,
// while the batch's host-to-device charges are live and the activations
// are not yet charged.
type ledgerSpy struct {
	Model
	dev  *device.Device
	live []device.Buffer
}

func (m *ledgerSpy) Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	m.live = m.dev.LiveBuffers()
	return m.Model.Forward(tp, blocks, x)
}

// H2DBytes is exactly what the ledger's input-features, labels and blocks
// charges hold before rounding, and a runner without a device counts the
// same bytes.
func TestH2DBytesMatchesLedger(t *testing.T) {
	d := testData(t)
	dev := device.New(device.GiB, device.DefaultCostModel())
	r := testRunner(t, d, dev)
	spy := &ledgerSpy{Model: r.Model, dev: dev}
	r.Model = spy
	blocks, err := sample.New([]int{5, 5}, 1).Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"input-features": int64(len(blocks[0].SrcNID)) * int64(d.FeatureDim()) * 4,
		"labels":         int64(len(blocks[len(blocks)-1].DstNID)) * 4,
		"blocks":         int64(graph.Stats(blocks).TotalEdges) * 3 * 4,
	}
	var sum int64
	for label, n := range want {
		found := 0
		for _, b := range spy.live {
			if b.Label() == label {
				found++
				if b.Bytes() != device.RoundAlloc(n) {
					t.Fatalf("%s: ledger holds %d bytes, want RoundAlloc(%d)", label, b.Bytes(), n)
				}
			}
		}
		if found != 1 {
			t.Fatalf("%s: %d ledger charges, want 1 (live: %v)", label, found, spy.live)
		}
		sum += n
	}
	if res.H2DBytes != sum {
		t.Fatalf("H2DBytes = %d, ledger charges sum to %d before rounding", res.H2DBytes, sum)
	}
	bare, err := testRunner(t, d, nil).RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.H2DBytes != res.H2DBytes {
		t.Fatalf("H2DBytes without a device = %d, with = %d", bare.H2DBytes, res.H2DBytes)
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
// analyzer. Measured 51 allocs/step at both worker counts on Go 1.24; the
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
// (label < 0), the fixture for the masked-accuracy fix.
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

func (m constModel) Config() nn.Config {
	return nn.Config{InDim: 1, Hidden: 1, OutDim: m.classes, Layers: 2}
}

// RunMicroBatch masks labels; pin that behaviour with the fixture.
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
