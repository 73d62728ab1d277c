package memory

import (
	"fmt"
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// TestEstimateMatchesTapeBytes pins the estimator's activation terms to the
// op chain that actually runs: for every architecture, on unweighted and
// edge-weighted sampled batches, Hidden + Aggregator equals, to the byte,
// what one Model.Forward materializes on a fresh tape. GAT runs with one,
// two and three heads: one head records no head-averaging ops.
func TestEstimateMatchesTapeBytes(t *testing.T) {
	type forwardModel interface {
		Model
		Forward(tp *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var
	}
	for _, weighted := range []bool{false, true} {
		g := randomGraph(t, 31, 2000, 24000, weighted)
		blocks := sampleBatch(t, g, seedsRange(128), []int{5, 8})
		if weighted != (blocks[0].EdgeWt != nil) {
			t.Fatalf("weighted=%v graph sampled blocks with EdgeWt=%v", weighted, blocks[0].EdgeWt != nil)
		}
		cfg := nn.Config{InDim: 12, Hidden: 16, OutDim: 5, Layers: 2, Heads: 2}
		sage := func(agg nn.Aggregator) func() (forwardModel, error) {
			return func() (forwardModel, error) {
				c := cfg
				c.Aggregator = agg
				return nn.NewGraphSAGE(c, rng.New(32))
			}
		}
		gat := func(heads int) func() (forwardModel, error) {
			return func() (forwardModel, error) {
				c := cfg
				c.Heads = heads
				return nn.NewGAT(c, rng.New(34))
			}
		}
		for _, c := range []struct {
			name  string
			build func() (forwardModel, error)
		}{
			{"sage-mean", sage(nn.Mean)},
			{"sage-sum", sage(nn.Sum)},
			{"sage-pool", sage(nn.Pool)},
			{"sage-lstm", sage(nn.LSTM)},
			{"gcn", func() (forwardModel, error) { return nn.NewGCN(g, cfg, rng.New(33)) }},
			{"gat", func() (forwardModel, error) { return nn.NewGAT(cfg, rng.New(34)) }},
			{"gat-1head", gat(1)},
			{"gat-3heads", gat(3)},
		} {
			t.Run(fmt.Sprintf("%s/weighted=%v", c.name, weighted), func(t *testing.T) {
				model, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				est, err := Estimate(blocks, SpecOf(model, nil))
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.New(blocks[0].NumSrc, cfg.InDim)
				x.Randn(rng.New(35), 1)
				tp := tensor.NewTape()
				defer tp.Release()
				model.Forward(tp, blocks, tensor.Leaf(x))
				if got := est.Hidden + est.Aggregator; got != tp.ValueBytes() {
					t.Fatalf("estimated activations %d B, tape materialized %d B (Hidden %d + Aggregator %d)",
						got, tp.ValueBytes(), est.Hidden, est.Aggregator)
				}
			})
		}
	}
}
