package memory

import (
	"errors"
	"reflect"
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
)

// firstFit is the search Planner.Plan replaced, kept as its reference: walk
// K = 1, 2, 3, ... with a from-scratch PartitionBatch per attempt and return
// the first K whose largest estimate fits — under a Split, the largest
// estimate of any micro-batch's shards.
func firstFit(pl *Planner, full []*graph.Block) (*Plan, error) {
	last := full[len(full)-1]
	maxK := pl.MaxK
	if maxK <= 0 || maxK > last.NumDst {
		maxK = last.NumDst
	}
	for k := 1; k <= maxK; k++ {
		groups := [][]int32{make([]int32, last.NumDst)}
		for i := range groups[0] {
			groups[0][i] = int32(i)
		}
		if k > 1 {
			var err error
			if groups, err = pl.Partitioner.PartitionBatch(last, k); err != nil {
				return nil, err
			}
		}
		plan := &Plan{K: k, Groups: groups}
		for _, sel := range groups {
			micro, err := graph.SliceBatch(full, sel)
			if err != nil {
				return nil, err
			}
			est, err := Estimate(micro, pl.Spec)
			if err != nil {
				return nil, err
			}
			plan.Micro = append(plan.Micro, micro)
			plan.Estimates = append(plan.Estimates, est)
			if pl.Split == nil {
				plan.MaxPeak = max(plan.MaxPeak, pl.peakOf(est))
				continue
			}
			shards, err := pl.shard(micro, len(plan.Shards))
			if err != nil {
				return nil, err
			}
			plan.Shards = append(plan.Shards, shards)
			for _, shard := range shards {
				se, err := Estimate(shard, pl.Spec)
				if err != nil {
					return nil, err
				}
				plan.MaxPeak = max(plan.MaxPeak, pl.peakOf(se))
			}
		}
		if plan.MaxPeak+int64(float64(plan.MaxPeak)*pl.SafetyMargin) <= pl.Capacity {
			return plan, nil
		}
	}
	return nil, ErrCannotFit
}

// propModels is the model axis of the equivalence grid: the four SAGE
// aggregators, GCN and GAT.
const propModels = 6

// propPeak is one point of the grid's peak axis: a peak functional, and a
// device count above 1 for a split-parallel plan.
type propPeak struct {
	peak    func(Breakdown) int64
	devices int
}

var (
	propPeaks   = []propPeak{{nil, 1}, {Breakdown.ForwardPeak, 1}, {nil, 2}, {nil, 4}}
	propMargins = []float64{0, 0.02, 0.1}
)

// propCase builds one grid point: a random small batch (sampled, so covered;
// every fifth seed grows an unreachable input node, so not), a model spec, a
// peak functional or a split over the case's partitioner, a capacity in
// permille of the full batch's peak, and a margin. Everything derives from
// the arguments.
func propCase(t *testing.T, seed uint64, model, peak uint8, capPermille uint16, margin uint8) (*Planner, []*graph.Block) {
	t.Helper()
	r := rng.New(seed)
	n := int32(40 + r.Intn(200))
	m := int(n) * (1 + r.Intn(6))
	src, dst := make([]int32, m), make([]int32, m)
	for i := range src {
		src[i], dst[i] = r.Int31n(n), r.Int31n(n)
	}
	g, err := graph.FromEdges(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	layers := 1 + r.Intn(2)
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = 1 + r.Intn(4)
	}
	seeds := r.Perm(int(n))[:1+r.Intn(40)]
	full, err := sample.New(fanouts, seed).Sample(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if seed%5 == 4 {
		in := full[0]
		full[0] = &graph.Block{NumSrc: in.NumSrc + 1, NumDst: in.NumDst, Ptr: in.Ptr, SrcLocal: in.SrcLocal,
			EID: in.EID, SrcNID: append(append([]int32(nil), in.SrcNID...), n), DstNID: in.DstNID}
	}

	cfg := nn.Config{InDim: 1 + r.Intn(24), Hidden: 1 + r.Intn(24), OutDim: 1 + r.Intn(8), Layers: layers, Heads: 1 + r.Intn(4)}
	// The parameter count stays a draw of its own, so the model-state
	// term varies apart from the layers.
	params, optState := r.Intn(600)+r.Intn(60), r.Intn(3)
	var arch Model
	switch model % propModels {
	case 4:
		arch, err = nn.NewGCN(g, cfg, rng.New(seed))
	case 5:
		arch, err = nn.NewGAT(cfg, rng.New(seed))
	default:
		cfg.Aggregator = []nn.Aggregator{nn.Mean, nn.Sum, nn.Pool, nn.LSTM}[model%propModels]
		arch, err = nn.NewGraphSAGE(cfg, rng.New(seed))
	}
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(arch, nil)
	spec.Params, spec.OptStatePerParam = params, optState
	parts := []reg.BatchPartitioner{reg.BettyBatch{Seed: seed}, reg.MetisBatch{Seed: seed}, reg.RandomBatch{Seed: seed}, reg.RangeBatch{}}
	pp := propPeaks[int(peak)%len(propPeaks)]
	pl := &Planner{
		Partitioner:  parts[r.Intn(len(parts))],
		Spec:         spec,
		SafetyMargin: propMargins[int(margin)%len(propMargins)],
		Peak:         pp.peak,
	}
	if pp.devices > 1 {
		pl.Split = &Split{Devices: pp.devices, Partitioner: pl.Partitioner}
	}
	if r.Intn(4) == 0 {
		pl.MaxK = 1 + r.Intn(4)
	}
	whole, err := Estimate(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl.Capacity = max(1, pl.peakOf(whole)*int64(capPermille%1400)/1000)
	return pl, full
}

// checkPlanMatchesFirstFit asserts Plan ≡ firstFit on one grid point: the
// same error, or the same K, groups, estimates and shards — and that the
// bound the search started from never exceeds the reference K. It returns
// that bound (0 when nothing fits).
func checkPlanMatchesFirstFit(t *testing.T, seed uint64, model, peak uint8, capPermille uint16, margin uint8) int {
	t.Helper()
	pl, full := propCase(t, seed, model, peak, capPermille, margin)
	want, wantErr := firstFit(pl, full)
	got, gotErr := pl.Plan(full)
	if wantErr != nil || gotErr != nil {
		if !errors.Is(wantErr, ErrCannotFit) || !errors.Is(gotErr, ErrCannotFit) {
			t.Fatalf("errors differ: first-fit %v, Plan %v", wantErr, gotErr)
		}
		return 0
	}
	if got.K != want.K || got.MaxPeak != want.MaxPeak ||
		!reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.Estimates, want.Estimates) ||
		!reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("Plan chose K=%d peak=%d, first-fit K=%d peak=%d (or groups/estimates/shards differ)",
			got.K, got.MaxPeak, want.K, want.MaxPeak)
	}
	if got.LowerBound < 1 || got.LowerBound > want.K || got.Attempts != got.K-got.LowerBound+1 {
		t.Fatalf("bound=%d attempts=%d for reference K=%d", got.LowerBound, got.Attempts, want.K)
	}
	if !graph.Covered(full) && got.LowerBound != 1 {
		t.Fatalf("bound=%d on a batch that is not covered", got.LowerBound)
	}
	return got.LowerBound
}

// TestPlanMatchesFirstFit is the planner half of ROADMAP item 10: over a
// seeded grid of batches x models x peak functionals or splits x capacities
// x margins the bounded, prepare-once search returns exactly the first-fit
// plan.
func TestPlanMatchesFirstFit(t *testing.T) {
	tight := 0
	for seed := uint64(0); seed < 5; seed++ {
		for model := uint8(0); model < propModels; model++ {
			for peak := range propPeaks {
				for _, capPermille := range []uint16{150, 350, 500, 750, 1100} {
					for margin := range propMargins {
						if checkPlanMatchesFirstFit(t, seed, model, uint8(peak), capPermille, uint8(margin)) > 1 {
							tight++
						}
					}
				}
			}
		}
	}
	// The grid must exercise the bound, not only agree with it at K = 1.
	if tight < 100 {
		t.Fatalf("only %d grid points started above K=1; the bound is barely exercised", tight)
	}
}

// FuzzPlanMatchesFirstFit is the same property over fuzzer-chosen points.
func FuzzPlanMatchesFirstFit(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(500), uint8(0))
	f.Add(uint64(4), uint8(3), uint8(2), uint16(350), uint8(2))
	f.Add(uint64(7), uint8(5), uint8(1), uint16(150), uint8(1))
	f.Add(uint64(9), uint8(4), uint8(3), uint16(300), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, model, peak uint8, capPermille uint16, margin uint8) {
		checkPlanMatchesFirstFit(t, seed, model, peak, capPermille, margin)
	})
}

// The LSTM degree-bucket term is the one estimator component that is not
// linear in a block's counts: twelve outputs of twelve different degrees pay
// (2·12-1)·12·F for their buckets, while each half of an edge-balanced
// two-way split pays (2·6-1)·6·F — under a quarter, not half. A bound that
// divided that term by K would rule out a K = 2 that fits; sweeping the
// capacity across the K = 2 window shows Plan does not.
func TestLowerBoundDropsLSTMBuckets(t *testing.T) {
	degs := []int{1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7} // both halves sum to 39
	n := int32(len(degs))
	b := &graph.Block{NumDst: len(degs), Ptr: []int64{0}}
	for d := int32(0); d < n; d++ {
		b.DstNID = append(b.DstNID, d)
	}
	b.SrcNID = append(b.SrcNID, b.DstNID...)
	for _, deg := range degs {
		for j := 0; j < deg; j++ { // private sources
			b.SrcLocal = append(b.SrcLocal, int32(len(b.SrcNID)))
			b.SrcNID = append(b.SrcNID, int32(len(b.SrcNID)))
			b.EID = append(b.EID, -1)
		}
		b.Ptr = append(b.Ptr, int64(len(b.SrcLocal)))
	}
	b.NumSrc = len(b.SrcNID)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	full := []*graph.Block{b}
	spec := tableSpec(t, "sage", nn.Config{InDim: 4, Hidden: 4, OutDim: 2, Layers: 1, Aggregator: nn.LSTM}, 10, 0)
	whole, err := Estimate(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Partitioner: reg.RangeBatch{}, Spec: spec}
	ks := map[int]bool{}
	for pl.Capacity = whole.Peak(); pl.Capacity > whole.Peak()/4; pl.Capacity -= whole.Peak() / 400 {
		want, wantErr := firstFit(pl, full)
		got, gotErr := pl.Plan(full)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("capacity %d: first-fit %v, Plan %v", pl.Capacity, wantErr, gotErr)
		}
		if wantErr == nil && (got.K != want.K || got.MaxPeak != want.MaxPeak) {
			t.Fatalf("capacity %d: Plan K=%d, first-fit K=%d", pl.Capacity, got.K, want.K)
		}
		if wantErr == nil {
			ks[want.K] = true
		}
	}
	if !ks[1] || !ks[2] || !ks[3] {
		t.Fatalf("sweep reached only K in %v", ks)
	}
}

// Allocator rounding is not convex, so the bound sums the ideal breakdown's
// charges unrounded. Three outputs with 80-wide features split 2 + 1: each
// half peaks at five 512-byte blocks of batch charges, but the ideal half
// takes six once rounded (its activations, 514 B, cross a block). A bound
// that rounded would rule out the K = 2 that fits.
func TestLowerBoundUnrounded(t *testing.T) {
	b := &graph.Block{NumSrc: 4, NumDst: 3, Ptr: []int64{0, 0, 0, 1}, SrcLocal: []int32{3}, EID: []int32{-1},
		SrcNID: []int32{0, 1, 2, 3}, DstNID: []int32{0, 1, 2}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	full := []*graph.Block{b}
	spec := tableSpec(t, "sage", nn.Config{InDim: 80, Hidden: 5, OutDim: 5, Layers: 1, Aggregator: nn.Mean}, 10, 0)
	pl := &Planner{Partitioner: reg.RangeBatch{}, Spec: spec}
	two, err := pl.EvaluateFixedK(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl.Capacity = two.MaxPeak
	whole, err := Estimate(full, spec)
	if err != nil {
		t.Fatal(err)
	}
	rounded := whole.ideal(2)
	rounded.unrounded = false
	if rounded.Peak() <= pl.Capacity {
		t.Fatalf("rounded ideal half %d fits capacity %d; the case shows nothing", rounded.Peak(), pl.Capacity)
	}
	got, err := pl.Plan(full)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 2 {
		t.Fatalf("Plan K=%d from bound %d at capacity %d, want the K=2 that fits", got.K, got.LowerBound, pl.Capacity)
	}
}
