package core

import (
	"math"
	"testing"

	"betty/internal/nn"
	"betty/internal/tensor"
)

// BatchInference, the one-shot forward-only entry, produces the bits of
// the model's own Forward on a fresh tape, for every architecture and
// aggregator.
func TestBatchInferenceMatchesModelForward(t *testing.T) {
	d := testData(t)
	sage := func(agg nn.Aggregator) func() (*Setup, error) {
		return func() (*Setup, error) {
			return BuildSAGE(d, Options{Seed: 40, Hidden: 16, Fanouts: []int{4, 6}, Aggregator: agg})
		}
	}
	for _, c := range []struct {
		name  string
		build func() (*Setup, error)
	}{
		{"sage-mean", sage(nn.Mean)},
		{"sage-sum", sage(nn.Sum)},
		{"sage-pool", sage(nn.Pool)},
		{"sage-lstm", sage(nn.LSTM)},
		{"gcn", func() (*Setup, error) { return Build(d, "gcn", "", Options{Seed: 41, Hidden: 8, Fanouts: []int{4, 6}}) }},
		{"gat", func() (*Setup, error) {
			return Build(d, "gat", "", Options{Seed: 42, Hidden: 8, Heads: 2, Fanouts: []int{4, 6}})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := s.Engine.Sampler.Sample(d.Graph, []int32{3, 8, 120, 700})
			if err != nil {
				t.Fatal(err)
			}
			x, err := d.GatherFeatures(blocks[0].SrcNID)
			if err != nil {
				t.Fatal(err)
			}
			tp := tensor.NewTape()
			defer tp.Release()
			want := s.Model.Forward(tp, blocks, tensor.Leaf(x)).Value

			got, err := BatchInference(s.Model, blocks, x)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("logit %d differs: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

func TestBatchInferenceErrors(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 43, Hidden: 8, Fanouts: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Engine.Sampler.Sample(d.Graph, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.GatherFeatures(blocks[0].SrcNID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BatchInference(struct{}{}, blocks, x); err == nil {
		t.Fatal("unsupported model accepted")
	}
	if _, err := BatchInference(s.Model, blocks[:1], x); err == nil {
		t.Fatal("block/layer count mismatch accepted")
	}
	if _, err := BatchInference(s.Model, blocks, tensor.New(1, d.FeatureDim())); err == nil {
		t.Fatal("feature row mismatch accepted")
	}
}

// GCN trains end to end through the Betty engine.
func TestGCNTrainsWithBetty(t *testing.T) {
	d := testData(t)
	s, err := Build(d, "gcn", "", Options{Seed: 34, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Engine.Spec.IsGCN {
		t.Fatal("GCN spec not marked")
	}
	var first, last float64
	for e := 0; e < 8; e++ {
		st, err := s.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			first = st.Loss
		}
		last = st.Loss
	}
	if last >= first {
		t.Fatalf("GCN loss did not decrease: %v -> %v", first, last)
	}
}
