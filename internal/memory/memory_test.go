package memory

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
)

// testGraph builds a reproducible scale-free-ish random graph.
func testGraph(t *testing.T, seed uint64, n int32, m int) *graph.Graph {
	t.Helper()
	return randomGraph(t, seed, n, m, false)
}

// randomGraph is testGraph, with a positive weight on every edge when
// weighted is set.
func randomGraph(t *testing.T, seed uint64, n int32, m int, weighted bool) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	src := make([]int32, m)
	dst := make([]int32, m)
	for i := range src {
		src[i] = r.Int31n(n)
		dst[i] = r.Int31n(n)
	}
	var w []float32
	if weighted {
		w = make([]float32, m)
		for i := range w {
			w[i] = float32(r.Float64()) + 0.5
		}
	}
	g, err := graph.FromEdgesWeighted(n, src, dst, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sampleBatch(t *testing.T, g *graph.Graph, seeds []int32, fanouts []int) []*graph.Block {
	t.Helper()
	blocks, err := sample.New(fanouts, 1).Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func sageSpec(t *testing.T, cfg nn.Config) Spec {
	t.Helper()
	r := rng.New(2)
	m, err := nn.NewGraphSAGE(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return SpecOf(m, nn.NewAdam(m, 0.01))
}

func seedsRange(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func TestEstimateHandComputed(t *testing.T) {
	// one layer, one block: 2 dst, 3 src, 4 edges
	b := &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 2, 4},
		SrcLocal: []int32{1, 2, 0, 2},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{5, 6, 7},
		DstNID:   []int32{5, 6},
	}
	spec := Spec{
		Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean},
		ParamsGNN:        100,
		ParamsAgg:        0,
		OptStatePerParam: 2,
	}
	est, err := Estimate([]*graph.Block{b}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if est.Params != 400 {
		t.Fatalf("Params = %d", est.Params)
	}
	if est.InputFeatures != 3*10*4 {
		t.Fatalf("InputFeatures = %d", est.InputFeatures)
	}
	if est.Labels != 2*4 {
		t.Fatalf("Labels = %d", est.Labels)
	}
	if est.Blocks != 4*3*4 {
		t.Fatalf("Blocks = %d", est.Blocks)
	}
	// single layer: out dim = OutDim = 4, two destinations
	if est.Hidden != 2*4*4 {
		t.Fatalf("Hidden = %d", est.Hidden)
	}
	// mean-layer intermediates: self+concat (3NF = 60) + fused
	// linear+bias (NO = 8) + fused gather+sum+scale (NF = 20) = 88 values,
	// minus the N*O counted in Hidden: (88 - 8) * 4 = 320 bytes
	if est.Aggregator != (3*2*10+2*4+2*10-2*4)*4 {
		t.Fatalf("Aggregator = %d", est.Aggregator)
	}
	if est.Gradients != 400 || est.OptStates != 800 {
		t.Fatalf("Gradients/OptStates = %d/%d", est.Gradients, est.OptStates)
	}
	// peak: every charge rounds up to 512-byte blocks — parameters 400,
	// gradients 400, input features 120, labels 8, blocks 48 and
	// activations 32+320+4 (the loss value) one block each, optimizer
	// states 800 two.
	if est.Peak() != 8*512 {
		t.Fatalf("Peak = %d, want %d", est.Peak(), 8*512)
	}
	// forward: parameters, input features, blocks and activations 352.
	if est.ForwardPeak() != 4*512 {
		t.Fatalf("ForwardPeak = %d, want %d", est.ForwardPeak(), 4*512)
	}

	// The loss value counts: activations of 510 bytes take one block in a
	// forward pass and two in a training step.
	edge := Breakdown{Params: 512, Gradients: 512, OptStates: 1024, InputFeatures: 513, Labels: 1, Hidden: 500, Aggregator: 10}
	if got, want := edge.Peak(), int64(512+512+1024+1024+512+0+1024); got != want {
		t.Fatalf("boundary Peak = %d, want %d", got, want)
	}
	if got, want := edge.ForwardPeak(), int64(512+1024+0+512); got != want {
		t.Fatalf("boundary ForwardPeak = %d, want %d", got, want)
	}
}

func TestEstimateLSTMEquation5(t *testing.T) {
	b := &graph.Block{
		NumSrc:   4,
		NumDst:   2,
		Ptr:      []int64{0, 3, 5},
		SrcLocal: []int32{1, 2, 3, 0, 2},
		EID:      []int32{-1, -1, -1, -1, -1},
		SrcNID:   []int32{1, 2, 3, 4},
		DstNID:   []int32{1, 2},
	}
	spec := Spec{
		Model:     nn.Config{InDim: 6, Hidden: 6, OutDim: 3, Layers: 1, Aggregator: nn.LSTM},
		ParamsGNN: 10,
	}
	est, err := Estimate([]*graph.Block{b}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Eq 5: sum_i L_i*B_i = E = 5 edges, H = 6, x30 intermediates = 900
	// values, plus bucket scatters (degrees {3,2} -> 2 buckets -> 3*N*F=36)
	// plus the shared pipeline 3NF+NO = 36+6 = 42, minus the N*O = 6
	// counted in Hidden: (900 + 36 + 42 - 6) * 4 = 3888 bytes.
	want := int64(5*6*30+36+3*2*6+2*3-2*3) * 4
	if est.Aggregator != want {
		t.Fatalf("LSTM aggregator estimate = %d, want %d", est.Aggregator, want)
	}
}

func TestEstimateErrors(t *testing.T) {
	spec := sageSpec(t, nn.Config{InDim: 4, Hidden: 4, OutDim: 2, Layers: 2, Aggregator: nn.Mean})
	if _, err := Estimate(nil, spec); err == nil {
		t.Fatal("empty batch accepted")
	}
	b := &graph.Block{NumSrc: 1, NumDst: 1, Ptr: []int64{0, 0}, SrcNID: []int32{0}, DstNID: []int32{0}}
	if _, err := Estimate([]*graph.Block{b}, spec); err == nil {
		t.Fatal("layer count mismatch accepted")
	}
}

// Figure 2 trends: LSTM > Pool > Mean on the same batch; deeper models,
// wider hidden sizes, and larger fanouts all increase the estimate.
func TestEstimateMonotoneTrends(t *testing.T) {
	g := testGraph(t, 3, 3000, 40000)
	seeds := seedsRange(256)

	base := nn.Config{InDim: 32, Hidden: 32, OutDim: 8, Layers: 2}
	batch2 := sampleBatch(t, g, seeds, []int{10, 10})

	est := func(cfg nn.Config, blocks []*graph.Block) int64 {
		e, err := Estimate(blocks, sageSpec(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return e.Peak()
	}

	cfgMean, cfgPool, cfgLSTM := base, base, base
	cfgMean.Aggregator = nn.Mean
	cfgPool.Aggregator = nn.Pool
	cfgLSTM.Aggregator = nn.LSTM
	mean, pool, lstm := est(cfgMean, batch2), est(cfgPool, batch2), est(cfgLSTM, batch2)
	if !(mean < pool && pool < lstm) {
		t.Fatalf("aggregator ordering violated: mean=%d pool=%d lstm=%d", mean, pool, lstm)
	}

	deep := base
	deep.Aggregator = nn.Mean
	deep.Layers = 3
	batch3 := sampleBatch(t, g, seeds, []int{10, 10, 10})
	if est(cfgMean, batch2) >= est(deep, batch3) {
		t.Fatal("deeper model should cost more")
	}

	wide := cfgMean
	wide.Hidden = 128
	wide.InDim = 128
	if est(cfgMean, batch2) >= est(wide, batch2) {
		t.Fatal("wider model should cost more")
	}

	batchBigFanout := sampleBatch(t, g, seeds, []int{25, 25})
	if est(cfgMean, batch2) >= est(cfgMean, batchBigFanout) {
		t.Fatal("larger fanout should cost more")
	}
}

func TestPlannerFindsMinimalK(t *testing.T) {
	g := testGraph(t, 5, 2000, 30000)
	full := sampleBatch(t, g, seedsRange(200), []int{10, 10})
	spec := sageSpec(t, nn.Config{InDim: 64, Hidden: 64, OutDim: 8, Layers: 2, Aggregator: nn.Mean})

	fullEst, err := Estimate(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	// capacity below the full batch forces partitioning
	capacity := fullEst.Peak() * 2 / 3
	pl := &Planner{
		Capacity:    capacity,
		Partitioner: reg.BettyBatch{Seed: 1},
		Spec:        spec,
	}
	plan, err := pl.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K < 2 {
		t.Fatalf("expected K >= 2, got %d", plan.K)
	}
	if plan.MaxPeak > capacity {
		t.Fatalf("plan violates capacity: %d > %d", plan.MaxPeak, capacity)
	}
	if len(plan.Micro) != plan.K || len(plan.Estimates) != plan.K {
		t.Fatal("plan structure inconsistent")
	}
	// The search is pinned by its result, not its shape: the plan is the
	// first-fit walk's, reached from the lower bound.
	ref, err := firstFit(pl, full)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != ref.K || !reflect.DeepEqual(plan.Groups, ref.Groups) || plan.MaxPeak != ref.MaxPeak {
		t.Fatalf("plan K=%d peak=%d differs from the first-fit walk's K=%d peak=%d",
			plan.K, plan.MaxPeak, ref.K, ref.MaxPeak)
	}
	if plan.LowerBound < 2 || plan.Attempts != plan.K-plan.LowerBound+1 {
		t.Fatalf("attempts=%d, want K-bound+1 with K=%d bound=%d", plan.Attempts, plan.K, plan.LowerBound)
	}
	// K-1 must NOT fit (minimality)
	prev, err := pl.EvaluateFixedK(full, plan.K-1)
	if err != nil {
		t.Fatal(err)
	}
	if prev.MaxPeak <= capacity {
		t.Fatalf("K-1=%d already fits (%d <= %d); planner overshot", plan.K-1, prev.MaxPeak, capacity)
	}
	if plan.Redundancy(full) < 0 {
		t.Fatal("negative redundancy")
	}
}

func TestPlannerHugeCapacityKeepsK1(t *testing.T) {
	g := testGraph(t, 6, 500, 4000)
	full := sampleBatch(t, g, seedsRange(50), []int{5, 5})
	spec := sageSpec(t, nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean})
	pl := &Planner{Capacity: 1 << 40, Partitioner: reg.BettyBatch{}, Spec: spec}
	plan, err := pl.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 1 || plan.Attempts != 1 {
		t.Fatalf("K=%d attempts=%d, want 1/1", plan.K, plan.Attempts)
	}
}

// At K = 1 a covered batch is its own micro-batch: the plan holds full's
// blocks themselves, with the estimate an all-selecting slice would get.
// A batch that is not covered is still sliced.
func TestPlannerK1UsesCoveredBatch(t *testing.T) {
	g := testGraph(t, 6, 500, 4000)
	for _, agg := range []nn.Aggregator{nn.Mean, nn.LSTM} {
		full := sampleBatch(t, g, []int32{3, 40, 3, 41, 7}, []int{5, 5})
		spec := sageSpec(t, nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: agg})
		pl := &Planner{Capacity: 1 << 40, Partitioner: reg.BettyBatch{}, Spec: spec}
		plan, err := pl.Plan(full)
		if err != nil {
			t.Fatal(err)
		}
		if plan.K != 1 || len(plan.Micro) != 1 {
			t.Fatalf("K=%d with %d micro-batches, want one", plan.K, len(plan.Micro))
		}
		for l, b := range plan.Micro[0] {
			if b != full[l] {
				t.Fatalf("%v: micro-batch layer %d is a copy, not the batch's own block", agg, l)
			}
		}
		sliced, err := graph.SliceBatch(full, plan.Groups[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Estimate(sliced, spec)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Estimates[0] != want {
			t.Fatalf("%v: K=1 estimate %+v, the sliced batch's %+v", agg, plan.Estimates[0], want)
		}

		// One extra source no edge reaches: not covered, so K = 1 slices it
		// away.
		in := full[0]
		loose := append([]*graph.Block{{
			NumSrc: in.NumSrc + 1, NumDst: in.NumDst,
			Ptr: in.Ptr, SrcLocal: in.SrcLocal, EID: in.EID,
			SrcNID: append(append([]int32(nil), in.SrcNID...), 499), DstNID: in.DstNID,
		}}, full[1:]...)
		if graph.Covered(loose) {
			t.Fatal("batch with an unreached source reads as covered")
		}
		plan, err = pl.EvaluateFixedK(loose, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Micro[0][0] == loose[0] || plan.Micro[0][0].NumSrc != full[0].NumSrc {
			t.Fatalf("%v: uncovered batch was not sliced", agg)
		}
	}
}

func TestPlannerCannotFit(t *testing.T) {
	g := testGraph(t, 7, 500, 4000)
	full := sampleBatch(t, g, seedsRange(20), []int{5, 5})
	spec := sageSpec(t, nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean})
	pl := &Planner{Capacity: 100, Partitioner: reg.BettyBatch{}, Spec: spec, MaxK: 8}
	_, err := pl.Plan(full)
	if !errors.Is(err, ErrCannotFit) {
		t.Fatalf("want ErrCannotFit, got %v", err)
	}
	// 100 bytes is below the parameters alone: the bound rules out every K
	// and the message says so instead of naming an empty range.
	if !strings.Contains(err.Error(), "needs K >= 9, MaxK is 8, tried none") {
		t.Fatalf("message does not report the bound: %v", err)
	}
	// A capacity the bound cannot rule out but no allowed split meets
	// reports the range actually walked.
	two, err := pl.EvaluateFixedK(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl.Capacity, pl.MaxK = two.MaxPeak-1, 2
	if _, err = pl.Plan(full); !errors.Is(err, ErrCannotFit) || !strings.Contains(err.Error(), "tried K=2..2") {
		t.Fatalf("want ErrCannotFit naming K=2..2, got %v", err)
	}
}

func TestPlannerValidation(t *testing.T) {
	spec := sageSpec(t, nn.Config{InDim: 4, Hidden: 4, OutDim: 2, Layers: 1, Aggregator: nn.Mean})
	if _, err := (&Planner{Capacity: 10, Spec: spec}).Plan(nil); err == nil {
		t.Fatal("nil partitioner accepted")
	}
	pl := &Planner{Capacity: 0, Partitioner: reg.BettyBatch{}, Spec: spec}
	if _, err := pl.Plan(nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestSafetyMarginRaisesK(t *testing.T) {
	g := testGraph(t, 8, 2000, 30000)
	full := sampleBatch(t, g, seedsRange(200), []int{10, 10})
	spec := sageSpec(t, nn.Config{InDim: 64, Hidden: 64, OutDim: 8, Layers: 2, Aggregator: nn.Mean})
	fullEst, _ := Estimate(full, spec)
	capacity := fullEst.Peak() * 3 / 4

	noMargin := &Planner{Capacity: capacity, Partitioner: reg.BettyBatch{Seed: 2}, Spec: spec}
	withMargin := &Planner{Capacity: capacity, Partitioner: reg.BettyBatch{Seed: 2}, Spec: spec, SafetyMargin: 0.3}
	p1, err := noMargin.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := withMargin.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if p2.K < p1.K {
		t.Fatalf("margin lowered K: %d < %d", p2.K, p1.K)
	}
}

// Splitting reduces the max micro-batch estimate monotonically "in trend":
// K=4 should estimate below K=1.
func TestPartitioningReducesPeak(t *testing.T) {
	g := testGraph(t, 9, 2000, 30000)
	full := sampleBatch(t, g, seedsRange(128), []int{10, 10})
	spec := sageSpec(t, nn.Config{InDim: 64, Hidden: 64, OutDim: 8, Layers: 2, Aggregator: nn.Mean})
	pl := &Planner{Capacity: 1 << 40, Partitioner: reg.BettyBatch{Seed: 3}, Spec: spec}
	p1, err := pl.EvaluateFixedK(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := pl.EvaluateFixedK(full, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p4.MaxPeak >= p1.MaxPeak {
		t.Fatalf("K=4 peak %d not below K=1 peak %d", p4.MaxPeak, p1.MaxPeak)
	}
}

// ForwardPeak must exclude backward-only components, labels and the loss
// value, and round like the ledger; the planner's Peak override must change
// which budget the search enforces.
func TestForwardPeakAndPlannerOverride(t *testing.T) {
	g := testGraph(t, 8, 2000, 30000)
	full := sampleBatch(t, g, seedsRange(200), []int{10, 10})
	spec := sageSpec(t, nn.Config{InDim: 64, Hidden: 64, OutDim: 8, Layers: 2, Aggregator: nn.Mean})

	est, err := Estimate(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	fwd := est.ForwardPeak()
	if fwd >= est.Peak() {
		t.Fatalf("forward peak %d not below training peak %d", fwd, est.Peak())
	}
	want := device.RoundAlloc(est.Params) + device.RoundAlloc(est.InputFeatures) +
		device.RoundAlloc(est.Blocks) + device.RoundAlloc(est.Hidden+est.Aggregator)
	if fwd != want {
		t.Fatalf("ForwardPeak = %d, want rounded charge sum %d", fwd, want)
	}

	// A capacity between the forward peak and the training peak: the
	// default planner must split, the forward-only planner must not.
	capacity := (fwd + est.Peak()) / 2
	if capacity <= fwd {
		t.Skip("spec too small to separate forward and training peaks")
	}
	train := &Planner{Capacity: capacity, Partitioner: reg.BettyBatch{Seed: 1}, Spec: spec}
	tp, err := train.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if tp.K < 2 {
		t.Fatalf("training planner kept K=%d under capacity %d (peak %d)", tp.K, capacity, est.Peak())
	}
	infer := &Planner{
		Capacity:    capacity,
		Partitioner: reg.BettyBatch{Seed: 1},
		Spec:        spec,
		Peak:        Breakdown.ForwardPeak,
	}
	ip, err := infer.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if ip.K != 1 {
		t.Fatalf("forward-only planner split to K=%d though forward peak %d <= %d", ip.K, fwd, capacity)
	}
	if ip.MaxPeak != fwd {
		t.Fatalf("forward-only MaxPeak = %d, want %d", ip.MaxPeak, fwd)
	}
}

func TestSpecForInference(t *testing.T) {
	r := rng.New(11)
	sage, err := nn.NewGraphSAGE(nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean}, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SpecForInference(sage)
	if err != nil {
		t.Fatal(err)
	}
	if s.OptStatePerParam != 0 {
		t.Fatalf("inference spec carries optimizer states: %+v", s)
	}
	if s.ParamsGNN+s.ParamsAgg != nn.ParamCount(sage) {
		t.Fatal("inference spec params do not sum to model params")
	}
	gat, err := nn.NewGAT(nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := SpecForInference(gat)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.IsGAT {
		t.Fatalf("GAT inference spec not marked: %+v", gs)
	}
	if _, err := SpecForInference(struct{}{}); err == nil {
		t.Fatal("unsupported model accepted")
	}
}

func TestSpecFromModels(t *testing.T) {
	r := rng.New(10)
	sage, err := nn.NewGraphSAGE(nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.LSTM}, r)
	if err != nil {
		t.Fatal(err)
	}
	s := SpecOf(sage, nn.NewAdam(sage, 0.01))
	if s.ParamsAgg == 0 || s.ParamsGNN == 0 || s.OptStatePerParam != 2 {
		t.Fatalf("bad SAGE spec: %+v", s)
	}
	if s.ParamsGNN+s.ParamsAgg != nn.ParamCount(sage) {
		t.Fatal("spec params do not sum to model params")
	}
	gat, err := nn.NewGAT(nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	gs := SpecOf(gat, nil)
	if !gs.IsGAT || gs.IsGCN || gs.OptStatePerParam != 0 {
		t.Fatalf("bad GAT spec: %+v", gs)
	}
	gcn, err := nn.NewGCN(testGraph(t, 10, 50, 200), nn.Config{InDim: 8, Hidden: 8, OutDim: 4, Layers: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	cs := SpecOf(gcn, nn.NewAdam(gcn, 0.01))
	if !cs.IsGCN || cs.IsGAT || cs.ParamsAgg != 0 || cs.ParamsGNN != nn.ParamCount(gcn) || cs.OptStatePerParam != 2 {
		t.Fatalf("bad GCN spec: %+v", cs)
	}
	if s.IsGAT || s.IsGCN {
		t.Fatalf("SAGE spec marked as another architecture: %+v", s)
	}
}
