package memory

import (
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/rng"
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

// tableSpec is the spec of a real arch ("sage", "gcn" or "gat") model of
// cfg, so its layers state their own tape values, with the hand-picked
// parameter count and optimizer states the tables below compute with.
func tableSpec(t *testing.T, arch string, cfg nn.Config, params, optStatePerParam int) Spec {
	t.Helper()
	var m Model
	var err error
	switch arch {
	case "sage":
		m, err = nn.NewGraphSAGE(cfg, rng.New(1))
	case "gcn":
		m, err = nn.NewGCN(testGraph(t, 1, 8, 16), cfg, rng.New(1))
	case "gat":
		m, err = nn.NewGAT(cfg, rng.New(1))
	}
	if err != nil || m == nil {
		t.Fatalf("building %s: %v", arch, err)
	}
	s := SpecOf(m, nil)
	s.Params, s.OptStatePerParam = params, optStatePerParam
	return s
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
			// act = fused linear NO(8) over the self view and the fused
			//     sum-agg NF(20) = 28 values; Aggregator = 28*4 - Hidden(32).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum}, 50, 1),
			want: Breakdown{
				Params:        50 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    28*4 - 2*4*4,
				Gradients:     50 * 4,
				OptStates:     50 * 1 * 4,
			},
			// Every charge rounds to one block; activations are 28*4+4 = 116.
			peak: 7 * 512, forward: 4 * 512,
		},
		{
			// Mean folds the degree scale into the same fused kernel
			// output, so the count matches Sum: NO(8) + NF(20) = 28
			// values.
			name:   "sage-mean-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean}, 50, 0),
			want: Breakdown{
				Params:        50 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    28*4 - 2*4*4,
				Gradients:     50 * 4,
				OptStates:     0,
			},
			// No optimizer states: six one-block charges.
			peak: 6 * 512, forward: 4 * 512,
		},
		{
			// Pool adds pre-transform 3SF(90) + gathered messages EF(40) +
			// max NF(20) on top of the shared NO(8): 158 values.
			name:   "sage-pool-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Pool}, 80+30, 2),
			want: Breakdown{
				Params:        110 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    158*4 - 2*4*4,
				Gradients:     110 * 4,
				OptStates:     110 * 2 * 4,
			},
			// Optimizer states 880 and activations 158*4+4 = 636 take two
			// blocks each; the forward's activations 632 too.
			peak: 9 * 512, forward: 5 * 512,
		},
		{
			// GCN: source scaling SF(30) + fused normalized sum NF(20) +
			// scale of the self view NF(20) + add NF(20) + fused linear
			// NO(8) = 98 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "gcn", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1}, 44, 2),
			want: Breakdown{
				Params:        44 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    98*4 - 2*4*4,
				Gradients:     44 * 4,
				OptStates:     44 * 2 * 4,
			},
			// Activations 98*4+4 = 396: one block, like every other charge.
			peak: 7 * 512, forward: 4 * 512,
		},
		{
			// GAT, 2 heads, last layer (output width stays o=4): per head
			// SO(12) + 2S(6) + 5E(20) + 2EO(32) + NO(8) = 78, x2 heads =
			// 156, + head averaging NO*H(16) = 172 values.
			name:   "gat-1layer-2heads",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "gat", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Heads: 2}, 60+12, 0),
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
			// GAT, 1 head, last layer: the one head's SO(12) + 2S(6) +
			// 5E(20) + 2EO(32) + NO(8) = 78 values and no averaging ops,
			// since a lone head's sum is the output.
			name:   "gat-1layer-1head",
			blocks: []*graph.Block{tinyBlock()},
			spec:   tableSpec(t, "gat", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Heads: 1}, 60+12, 0),
			want: Breakdown{
				Params:        72 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    78*4 - 2*4*4,
				Gradients:     72 * 4,
				OptStates:     0,
			},
			// Activations 78*4+4 = 316: every charge one block.
			peak: 6 * 512, forward: 4 * 512,
		},
		{
			// Two layers. Layer 0 on midBlock (N=3,S=5,E=6,f=10,o=8):
			// fused linear+ReLU NO(24) + fused mean NF(30) = 54 values,
			// minus Hidden0 = 3*8 values (96 bytes). Layer 1 on tinyBlock
			// (N=2,S=3,f=8,o=4): NO(8) + mean NF(16) = 24 values, minus
			// Hidden1 = 2*4 values (32 bytes).
			name:   "sage-mean-2layer",
			blocks: []*graph.Block{midBlock(), tinyBlock()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean}, 200, 2),
			want: Breakdown{
				Params:        200 * 4,
				InputFeatures: 5 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        10 * 3 * 4,
				Hidden:        3*8*4 + 2*4*4,
				Aggregator:    (54*4 - 3*8*4) + (24*4 - 2*4*4),
				Gradients:     200 * 4,
				OptStates:     200 * 2 * 4,
			},
			// Parameters and gradients 800 (two blocks each), optimizer states
			// 1600 (four), activations (54+24)*4+4 = 316 (one), and three
			// one-block batch inputs.
			peak: 12 * 512, forward: 5 * 512,
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
			// f=10, o=4: fused linear NO(8) + fused weighted sum-agg
			// NF(20) = 28 values; minus Hidden (8 values).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{weighted()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum}, 50, 0),
			want:   (28 - 8) * 4,
		},
		{
			// Mean folds the weights and the degree scale into the same
			// kernel output: NO(8) + NF(20) = 28 values.
			name:   "sage-mean-1layer",
			blocks: []*graph.Block{weighted()},
			spec:   tableSpec(t, "sage", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean}, 50, 0),
			want:   (28 - 8) * 4,
		},
		{
			// GCN: source scaling SF(30) + fused normalized weighted sum
			// NF(20) + scale of the self view NF(20) + add NF(20) + fused
			// linear NO(8) = 98 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{weighted()},
			spec:   tableSpec(t, "gcn", nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1}, 44, 0),
			want:   (98 - 8) * 4,
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
