package train

import (
	"math"
	"testing"

	"betty/internal/sample"
)

// MeasureForward must report the activation bytes RunMicroBatch charges
// without perturbing training state: no gradients, no device charges, bitwise-identical
// numerics for a subsequent micro-batch.
func TestMeasureForwardMatchesRun(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	fc, err := r.MeasureForward(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if fc.ActivationBytes <= 0 {
		t.Fatalf("empty forward cost: %+v", fc)
	}
	for _, p := range r.Model.Params() {
		if p.Grad != nil {
			t.Fatal("measurement accumulated a gradient")
		}
	}

	res, err := r.RunMicroBatch(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fc.ActivationBytes != res.ActivationBytes {
		t.Fatalf("activation bytes %d, run reported %d", fc.ActivationBytes, res.ActivationBytes)
	}
}

// Interleaving a measurement between micro-batches must not change the
// training result: the scratch tape draws zeroed pool buffers, so the
// losses and gradients stay bitwise identical.
func TestMeasureForwardDoesNotPerturbTraining(t *testing.T) {
	run := func(measure bool) (float64, []float32) {
		d := testData(t)
		r := testRunner(t, d, nil)
		s := sample.New([]int{5, 5}, 1)
		blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
		if err != nil {
			t.Fatal(err)
		}
		var loss float64
		for i := 0; i < 3; i++ {
			if measure {
				if _, err := r.MeasureForward(blocks); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.RunMicroBatch(blocks, 1)
			if err != nil {
				t.Fatal(err)
			}
			loss = res.Loss
			r.Step()
		}
		var params []float32
		for _, p := range r.Model.Params() {
			params = append(params, p.Value.Data...)
		}
		return loss, params
	}
	lossPlain, paramsPlain := run(false)
	lossMeasured, paramsMeasured := run(true)
	if math.Float64bits(lossPlain) != math.Float64bits(lossMeasured) {
		t.Fatalf("loss changed: %v vs %v", lossPlain, lossMeasured)
	}
	for i := range paramsPlain {
		if math.Float32bits(paramsPlain[i]) != math.Float32bits(paramsMeasured[i]) {
			t.Fatalf("param %d changed: %v vs %v", i, paramsPlain[i], paramsMeasured[i])
		}
	}
}

func TestMeasureForwardEmptyBatch(t *testing.T) {
	d := testData(t)
	r := testRunner(t, d, nil)
	if _, err := r.MeasureForward(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}
