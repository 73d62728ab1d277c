package core

import (
	"fmt"
	"math"
	"testing"

	"betty/internal/nn"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// Layer-wise inference over the full graph must equal direct forward with
// full-neighbor sampling, because both compute the exact (unsampled) GNN.
func TestLayerwiseInferenceMatchesDirectForward(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 30, Hidden: 16, Fanouts: []int{-1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	// direct: full 2-hop neighborhood of a few probe nodes
	probes := []int32{0, 17, 99, 500}
	blocks, err := sample.SampleFull(d.Graph, probes, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.GatherFeatures(blocks[0].SrcNID)
	if err != nil {
		t.Fatal(err)
	}
	tp := tensor.NewTape()
	direct := s.Model.Forward(tp, blocks, tensor.Leaf(x))

	// layer-wise over the whole graph with a small chunk size
	logits, err := LayerwiseInference(s.Model, d.Graph, d.Features, 137)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range probes {
		for j := 0; j < logits.Cols(); j++ {
			a := float64(direct.Value.At(i, j))
			b := float64(logits.At(int(v), j))
			if math.Abs(a-b) > 1e-4*(1+math.Abs(a)) {
				t.Fatalf("node %d logit %d: direct %v vs layer-wise %v", v, j, a, b)
			}
		}
	}
}

func TestLayerwiseInferenceGCNAndGAT(t *testing.T) {
	d := testData(t)
	for _, build := range []func() (*Setup, error){
		func() (*Setup, error) { return BuildGCN(d, Options{Seed: 31, Hidden: 8, Fanouts: []int{-1, -1}}) },
		func() (*Setup, error) {
			return BuildGAT(d, Options{Seed: 31, Hidden: 8, Heads: 2, Fanouts: []int{-1, -1}})
		},
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		logits, err := LayerwiseInference(s.Model, d.Graph, d.Features, 211)
		if err != nil {
			t.Fatal(err)
		}
		if int32(logits.Rows()) != d.Graph.NumNodes() || logits.Cols() != d.NumClasses {
			t.Fatalf("logit shape %dx%d", logits.Rows(), logits.Cols())
		}
	}
}

// The three ways a batch is forwarded — the model's own Forward (training,
// evaluation), BatchInference (serving), and a hand-written chain of
// nn.ApplyBlockLayer over nn.LayerStack (what LayerwiseInference and the
// embedding cache's partial-skip path do) — must produce the same bits,
// for every architecture and aggregator, with the fused tier on and off.
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
		{"gcn", func() (*Setup, error) { return BuildGCN(d, Options{Seed: 41, Hidden: 8, Fanouts: []int{4, 6}}) }},
		{"gat", func() (*Setup, error) {
			return BuildGAT(d, Options{Seed: 42, Hidden: 8, Heads: 2, Fanouts: []int{4, 6}})
		}},
	} {
		for _, fused := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/fused=%v", c.name, fused), func(t *testing.T) {
				defer nn.SetFused(nn.SetFused(fused))
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
				layers, err := nn.LayerStack(s.Model)
				if err != nil {
					t.Fatal(err)
				}
				h1 := nn.ApplyBlockLayer(tp, layers[0], blocks[0], tensor.Leaf(x), false)
				chain := nn.ApplyBlockLayer(tp, layers[1], blocks[1], h1, true).Value

				for i, out := range []*tensor.Tensor{got, chain} {
					path := []string{"BatchInference", "ApplyBlockLayer chain"}[i]
					if out.Rows() != want.Rows() || out.Cols() != want.Cols() {
						t.Fatalf("%s: shape %dx%d, want %dx%d", path, out.Rows(), out.Cols(), want.Rows(), want.Cols())
					}
					for i := range out.Data {
						if math.Float32bits(out.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("%s: logit %d differs: %v vs %v", path, i, out.Data[i], want.Data[i])
						}
					}
				}
			})
		}
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

func TestLayerwiseInferenceErrors(t *testing.T) {
	d := testData(t)
	if _, err := LayerwiseInference(struct{}{}, d.Graph, d.Features, 0); err == nil {
		t.Fatal("unsupported model accepted")
	}
	s, err := BuildSAGE(d, Options{Seed: 32, Hidden: 8, Fanouts: []int{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(3, d.FeatureDim())
	if _, err := LayerwiseInference(s.Model, d.Graph, bad, 0); err == nil {
		t.Fatal("feature shape mismatch accepted")
	}
}

func TestInferAccuracy(t *testing.T) {
	d := testData(t)
	s, err := BuildSAGE(d, Options{Seed: 33, Hidden: 32, Fanouts: []int{8, 8}, FixedK: 2, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		if _, err := s.Engine.TrainEpochMicro(); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := InferAccuracy(s.Model, d.Graph, d.Features, d.Labels, d.TestIdx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 2.0/float64(d.NumClasses) {
		t.Fatalf("inference accuracy %v no better than chance", acc)
	}
	if _, err := InferAccuracy(s.Model, d.Graph, d.Features, d.Labels, nil, 0); err == nil {
		t.Fatal("empty node set accepted")
	}
}

// GCN trains end to end through the Betty engine.
func TestGCNTrainsWithBetty(t *testing.T) {
	d := testData(t)
	s, err := BuildGCN(d, Options{Seed: 34, Hidden: 16, Fanouts: []int{5, 5}, FixedK: 4})
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
