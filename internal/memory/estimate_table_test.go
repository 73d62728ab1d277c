package memory

import (
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
)

// tinyBlock is the 2-destination, 3-source, 4-edge block every
// hand-computed case below shares as its (last) layer.
func tinyBlock() *graph.Block {
	return &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 2, 4},
		SrcLocal: []int32{1, 2, 0, 2},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{5, 6, 7},
		DstNID:   []int32{5, 6},
	}
}

// midBlock is a 3-destination, 5-source, 6-edge input layer for the
// two-layer case.
func midBlock() *graph.Block {
	return &graph.Block{
		NumSrc:   5,
		NumDst:   3,
		Ptr:      []int64{0, 2, 4, 6},
		SrcLocal: []int32{3, 4, 0, 2, 1, 4},
		EID:      []int32{-1, -1, -1, -1, -1, -1},
		SrcNID:   []int32{5, 6, 7, 8, 9},
		DstNID:   []int32{5, 6, 7},
	}
}

// TestEstimateComponentsByModel pins every Breakdown component to a byte
// count computed by hand from the §4.4.3 formulas, one case per supported
// architecture. All cases share tinyBlock (N=2 outputs, S=3 inputs, E=4
// edges); the hand arithmetic is spelled out per field.
func TestEstimateComponentsByModel(t *testing.T) {
	cases := []struct {
		name   string
		blocks []*graph.Block
		spec   Spec
		want   Breakdown
		// peak and forward are Peak and ForwardPeak: the charges rounded
		// up to 512-byte blocks, by hand.
		peak, forward int64
	}{
		{
			// LayerDims(0) of a 1-layer net: f=InDim=10, o=OutDim=4.
			// act = self+concat 3NF(60) + fused linear NO(8) + fused
			//     sum-agg NF(20) = 88 values; Aggregator = 88*4 - Hidden(32).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum},
				ParamsGNN:        50,
				OptStatePerParam: 1,
			},
			want: Breakdown{
				Params:        50 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    88*4 - 2*4*4,
				Gradients:     50 * 4,
				OptStates:     50 * 1 * 4,
			},
			// Every charge rounds to one block; activations are 88*4+4 = 356.
			peak: 7 * 512, forward: 4 * 512,
		},
		{
			// Mean folds the degree scale into the same fused kernel
			// output, so the count matches Sum: 3NF(60) + NO(8) + NF(20)
			// = 88 values.
			name:   "sage-mean-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean},
				ParamsGNN: 50,
			},
			want: Breakdown{
				Params:        50 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    88*4 - 2*4*4,
				Gradients:     50 * 4,
				OptStates:     0,
			},
			// No optimizer states: six one-block charges.
			peak: 6 * 512, forward: 4 * 512,
		},
		{
			// Pool adds pre-transform 3SF(90) + gathered messages EF(40) +
			// max NF(20) on top of the shared 3NF+NO(68): 218 values.
			name:   "sage-pool-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Pool},
				ParamsGNN:        80,
				ParamsAgg:        30,
				OptStatePerParam: 2,
			},
			want: Breakdown{
				Params:        110 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    218*4 - 2*4*4,
				Gradients:     110 * 4,
				OptStates:     110 * 2 * 4,
			},
			// Optimizer states 880 and activations 218*4+4 = 876 take two
			// blocks each; the forward's activations 872 too.
			peak: 9 * 512, forward: 5 * 512,
		},
		{
			// GCN: source scaling SF(30) + fused normalized sum NF(20) +
			// self slice/scale 2NF(40) + add NF(20) + fused linear NO(8)
			// = 118 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1},
				ParamsGNN:        44,
				OptStatePerParam: 2,
				IsGCN:            true,
			},
			want: Breakdown{
				Params:        44 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    118*4 - 2*4*4,
				Gradients:     44 * 4,
				OptStates:     44 * 2 * 4,
			},
			// Activations 118*4+4 = 476: one block, like every other charge.
			peak: 7 * 512, forward: 4 * 512,
		},
		{
			// GAT, 2 heads, last layer (output width stays o=4): per head
			// SO(12) + 2S(6) + 5E(20) + 2EO(32) + NO(8) = 78, x2 heads =
			// 156, + head averaging NO*H(16) = 172 values.
			name:   "gat-1layer-2heads",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Heads: 2},
				ParamsGNN:        60,
				ParamsAgg:        12,
				OptStatePerParam: 0,
				IsGAT:            true,
			},
			want: Breakdown{
				Params:        72 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    172*4 - 2*4*4,
				Gradients:     72 * 4,
				OptStates:     0,
			},
			// No optimizer states; activations 172*4+4 = 692 take two blocks.
			peak: 7 * 512, forward: 5 * 512,
		},
		{
			// Two layers. Layer 0 on midBlock (N=3,S=5,E=6,f=10,o=8):
			// 3NF(90) + fused linear+ReLU NO(24) + fused mean NF(30) = 144
			// values, minus Hidden0 = 3*8 values (96 bytes). Layer 1 on
			// tinyBlock (N=2,S=3,f=8,o=4): 3NF(48) + NO(8) + mean NF(16) =
			// 72 values, minus Hidden1 = 2*4 values (32 bytes).
			name:   "sage-mean-2layer",
			blocks: []*graph.Block{midBlock(), tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean},
				ParamsGNN:        200,
				OptStatePerParam: 2,
			},
			want: Breakdown{
				Params:        200 * 4,
				InputFeatures: 5 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        10 * 3 * 4,
				Hidden:        3*8*4 + 2*4*4,
				Aggregator:    (144*4 - 3*8*4) + (72*4 - 2*4*4),
				Gradients:     200 * 4,
				OptStates:     200 * 2 * 4,
			},
			// Parameters and gradients 800 (two blocks each), optimizer states
			// 1600 (four), activations (144+72)*4+4 = 868 (two), and three
			// one-block batch inputs.
			peak: 13 * 512, forward: 6 * 512,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Estimate(tc.blocks, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("Breakdown mismatch:\ngot  %+v\nwant %+v", got, tc.want)
			}
			if got.Peak() != tc.peak || got.ForwardPeak() != tc.forward {
				t.Errorf("Peak = %d, ForwardPeak = %d; want %d, %d", got.Peak(), got.ForwardPeak(), tc.peak, tc.forward)
			}
		})
	}
}

// TestEstimateComponentsFused pins the fused-kernel activation accounting
// (DESIGN.md §13) on an edge-weighted tinyBlock. The fused SAGE and GCN
// forwards fold the edge weights, mean's degree scale and GCN's
// destination normalization into one kernel output, so a weighted batch
// costs exactly the Aggregator bytes of the unweighted cases in
// TestEstimateComponentsByModel: no per-edge weighted-message tensor is
// materialized.
func TestEstimateComponentsFused(t *testing.T) {
	weighted := func() *graph.Block {
		b := tinyBlock()
		b.EdgeWt = []float32{0.5, 2, 1.5, 0.25}
		return b
	}
	cases := []struct {
		name   string
		blocks []*graph.Block
		spec   Spec
		want   int64 // Aggregator bytes
	}{
		{
			// f=10, o=4: self+concat 3NF(60) + fused linear NO(8) +
			// fused weighted sum-agg NF(20) = 88 values; minus Hidden
			// (8 values).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{weighted()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum},
				ParamsGNN: 50,
			},
			want: (88 - 8) * 4,
		},
		{
			// Mean folds the weights and the degree scale into the same
			// kernel output: 3NF(60) + NO(8) + NF(20) = 88 values.
			name:   "sage-mean-1layer",
			blocks: []*graph.Block{weighted()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean},
				ParamsGNN: 50,
			},
			want: (88 - 8) * 4,
		},
		{
			// GCN: source scaling SF(30) + fused normalized weighted sum
			// NF(20) + self slice/scale 2NF(40) + add NF(20) + fused
			// linear NO(8) = 118 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{weighted()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1},
				ParamsGNN: 44,
				IsGCN:     true,
			},
			want: (118 - 8) * 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Estimate(tc.blocks, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Aggregator != tc.want {
				t.Errorf("fused Aggregator = %d, want %d", got.Aggregator, tc.want)
			}
		})
	}
}
