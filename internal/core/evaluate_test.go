package core

import (
	"errors"
	"math"
	"testing"

	"betty/internal/device"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/obs"
	"betty/internal/parallel"
)

// evalSpan returns the fields of the last eval span r recorded.
func evalSpan(t *testing.T, r *obs.Registry) map[string]int64 {
	t.Helper()
	var fields map[string]int64
	for _, sp := range r.Spans() {
		if sp.Phase == obs.PhaseEval {
			fields = map[string]int64{}
			for _, f := range sp.Fields {
				fields[f.Key] = f.Val
			}
		}
	}
	if fields == nil {
		t.Fatal("no eval span recorded")
	}
	return fields
}

// tracedTestAccuracy evaluates the test split with a tracing registry on
// the engine alone and returns the accuracy and the eval span's fields.
func tracedTestAccuracy(t *testing.T, e *Engine) (float64, map[string]int64, error) {
	t.Helper()
	r := obs.New(nil)
	r.SetTracing(true)
	prev := e.Obs
	e.Obs = r
	defer func() { e.Obs = prev }()
	acc, err := e.TestAccuracy()
	if err != nil {
		return 0, nil, err
	}
	return acc, evalSpan(t, r), nil
}

func TestEvaluate(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 3, Hidden: 16, Fanouts: []int{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.Engine.TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
	if _, err := s.Engine.evaluate(nil); err == nil {
		t.Fatal("empty evaluation accepted")
	}
}

// Evaluation must score labeled seeds only: with a model that always
// predicts class 0, accuracy is exactly (#labeled seeds with label 0) /
// (#labeled).
func TestEvaluateSkipsMaskedLabels(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		if i%3 == 0 {
			d.Labels[i] = -1
		}
	}
	got, err := constEngine(d).TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	want, labeled := maskedAccuracy(d, d.TestIdx)
	if labeled == len(d.TestIdx) {
		t.Fatal("fixture has no masked seeds")
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("TestAccuracy = %v, want %v (%d labeled)", got, want, labeled)
	}
}

func TestEvaluateAllMaskedErrors(t *testing.T) {
	d := testData(t)
	for i := range d.Labels {
		d.Labels[i] = -1
	}
	if _, err := constEngine(d).TestAccuracy(); err == nil {
		t.Fatal("evaluation over fully masked seeds must error")
	}
}

// Evaluation returns the identical accuracy for any worker count: the
// sampler's streams and the kernels' per-row results do not depend on it,
// and the accuracy is a ratio of integer counts.
func TestEvaluateParallelDeterminism(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 3, Hidden: 16, Fanouts: []int{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	want, err := s.Engine.TestAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got, err := s.Engine.TestAccuracy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: accuracy %v != serial %v", w, got, want)
		}
	}
}

// An evaluation planned onto a device too small for the whole test split
// returns the same accuracy, bit for bit, as one forward of the split
// without a device: slicing a batch changes no logit (DESIGN.md §11).
func TestPlannedEvaluationMatchesUnplanned(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 3, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := s.Engine.TrainEpochMicro(); err != nil {
			t.Fatal(err)
		}
	}
	want, f, err := tracedTestAccuracy(t, s.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if f["k"] != 1 {
		t.Fatalf("evaluation without a device planned K=%d, want 1", f["k"])
	}
	// Room for a fifth of the split's forward beside the resident state.
	scratch := device.New(device.GiB, device.CostModel{})
	if _, err := memory.AllocResident(scratch, s.Model, s.Opt); err != nil {
		t.Fatal(err)
	}
	params := device.RoundAlloc(int64(nn.ParamCount(s.Model)) * memory.BytesPerValue)
	s.Runner.Dev = device.New(scratch.Used()-params+f["max_peak_bytes"]/5, device.CostModel{})
	got, f, err := tracedTestAccuracy(t, s.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if f["k"] < 4 {
		t.Fatalf("the small device planned K=%d, want at least 4", f["k"])
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("planned evaluation (K=%d) accuracy %v, unplanned %v", f["k"], got, want)
	}
}

// checkEvaluationFits evaluates the test split on dev, the runner's
// device: evaluation fits or is refused with ErrCannotFit, and its ledger
// peak is the resident state plus the largest planned forward peak, less
// the parameters that peak counts, to the byte.
func checkEvaluationFits(t *testing.T, s *Setup, dev *device.Device, label string) {
	t.Helper()
	dev.ResetPeak()
	resident := dev.Used()
	_, f, err := tracedTestAccuracy(t, s.Engine)
	if errors.Is(err, memory.ErrCannotFit) {
		return
	}
	if err != nil {
		t.Fatalf("%s: evaluation: %v", label, err)
	}
	params := device.RoundAlloc(int64(nn.ParamCount(s.Model)) * memory.BytesPerValue)
	if want := resident + f["max_peak_bytes"] - params; dev.Peak() != want || dev.Peak() > dev.Capacity() {
		t.Errorf("%s: evaluation (K=%d) ledger peak %d, want %d within capacity %d",
			label, f["k"], dev.Peak(), want, dev.Capacity())
	}
}
