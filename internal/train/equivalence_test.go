package train

import (
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/parallel"
	"betty/internal/reg"
	"betty/internal/sample"
)

// microState is one run's accumulated gradients (pre-Step) and post-Step
// parameter values, flattened in Params order.
type microState struct {
	grads   [][]float32
	weights [][]float32
}

// runMicroSplit trains exactly one optimizer step over the given full batch
// split into k Betty micro-batches, on a fresh identically-seeded runner,
// and snapshots the accumulated gradients and stepped weights. This is the
// same slicing and loss-scaling scheme core.Engine uses (scale =
// microOutputs / batchOutputs), reproduced here so the equivalence claim is
// tested against package train alone.
func runMicroSplit(t *testing.T, blocks []*graph.Block, k int) microState {
	t.Helper()
	d := testData(t)
	r := testRunner(t, d, nil)
	last := blocks[len(blocks)-1]
	totalOut := last.NumDst

	groups := [][]int32{nil}
	if k > 1 {
		var err error
		groups, err = reg.BettyBatch{Seed: 9}.PartitionBatch(last, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, sel := range groups {
		micro := blocks
		if sel != nil {
			var err error
			micro, err = graph.SliceBatch(blocks, sel)
			if err != nil {
				t.Fatal(err)
			}
		}
		outs := micro[len(micro)-1].NumDst
		scale := float32(outs) / float32(totalOut)
		if _, err := r.RunMicroBatch(micro, scale); err != nil {
			t.Fatal(err)
		}
	}

	var st microState
	for _, p := range r.Model.Params() {
		g := make([]float32, len(p.Value.Data))
		if p.Grad != nil {
			copy(g, p.Grad.Data)
		}
		st.grads = append(st.grads, g)
	}
	r.Step()
	for _, p := range r.Model.Params() {
		st.weights = append(st.weights, append([]float32(nil), p.Value.Data...))
	}
	return st
}

// maxAbsDiff returns the largest elementwise |a-b| across the flattened
// tensors (and fails on shape mismatch).
func maxAbsDiff(t *testing.T, a, b [][]float32) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("tensor count %d != %d", len(a), len(b))
	}
	var worst float64
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("tensor %d: len %d != %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if d := math.Abs(float64(a[i][j]) - float64(b[i][j])); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// bitsEqual reports whether two snapshots are bit-for-bit identical.
func bitsEqual(t *testing.T, a, b [][]float32) bool {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("tensor count %d != %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("tensor %d: len %d != %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestMicroBatchEquivalence is the paper's correctness claim (§3): training
// on K scaled micro-batches of one sampled batch accumulates the same
// gradient — and therefore takes the same optimizer step — as the unsplit
// batch, up to float32 summation error.
func TestMicroBatchEquivalence(t *testing.T) {
	d := testData(t)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}

	full := runMicroSplit(t, blocks, 1)
	const tol = 1e-5
	for _, k := range []int{2, 4} {
		split := runMicroSplit(t, blocks, k)
		if diff := maxAbsDiff(t, full.grads, split.grads); diff > tol {
			t.Errorf("K=%d: accumulated gradients differ from full batch by %g (tol %g)", k, diff, tol)
		}
		if diff := maxAbsDiff(t, full.weights, split.weights); diff > tol {
			t.Errorf("K=%d: post-step weights differ from full batch by %g (tol %g)", k, diff, tol)
		}
	}
}

// TestMicroBatchBitwiseRepeatable pins the determinism contract: at a fixed
// worker count the K-micro-batch step is bit-for-bit reproducible, and the
// bits do not change with the worker count (deterministic parallel kernels).
func TestMicroBatchBitwiseRepeatable(t *testing.T) {
	d := testData(t)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, k := range []int{1, 2, 4} {
		parallel.SetWorkers(1)
		ref := runMicroSplit(t, blocks, k)
		again := runMicroSplit(t, blocks, k)
		if !bitsEqual(t, ref.grads, again.grads) || !bitsEqual(t, ref.weights, again.weights) {
			t.Errorf("K=%d: repeated run not bitwise identical at workers=1", k)
		}
		parallel.SetWorkers(8)
		wide := runMicroSplit(t, blocks, k)
		if !bitsEqual(t, ref.grads, wide.grads) {
			t.Errorf("K=%d: gradients change bits between workers=1 and workers=8", k)
		}
		if !bitsEqual(t, ref.weights, wide.weights) {
			t.Errorf("K=%d: weights change bits between workers=1 and workers=8", k)
		}
	}
}

// runEpochs trains nEpochs full passes over the given pre-sampled batches
// (each split into 2 Betty micro-batches, one optimizer step per batch) on
// a fresh identically-seeded runner, and returns the final parameter values.
func runEpochs(t *testing.T, batches [][]*graph.Block, nEpochs int) [][]float32 {
	t.Helper()
	d := testData(t)
	r := testRunner(t, d, nil)
	for e := 0; e < nEpochs; e++ {
		for _, blocks := range batches {
			last := blocks[len(blocks)-1]
			groups, err := reg.BettyBatch{Seed: 9}.PartitionBatch(last, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range groups {
				micro, err := graph.SliceBatch(blocks, sel)
				if err != nil {
					t.Fatal(err)
				}
				scale := float32(micro[len(micro)-1].NumDst) / float32(last.NumDst)
				if _, err := r.RunMicroBatch(micro, scale); err != nil {
					t.Fatal(err)
				}
			}
			r.Step()
		}
	}
	var weights [][]float32
	for _, p := range r.Model.Params() {
		weights = append(weights, append([]float32(nil), p.Value.Data...))
	}
	return weights
}

// TestFusedTrainingBitwiseEquivalent is the end-to-end determinism contract
// of the fused kernel tier (DESIGN.md §13): a 3-epoch micro-batched training
// run produces bit-for-bit the same final weights at 1 and 8 workers. That
// the fused layer forwards equal their primitive-op chains is pinned per
// layer by internal/nn's TestLayerForwardMatchesPrimitiveChain.
func TestFusedTrainingBitwiseEquivalent(t *testing.T) {
	d := testData(t)
	s := sample.New([]int{5, 5}, 1)
	var batches [][]*graph.Block
	for _, lo := range []int{0, 64} {
		blocks, err := s.Sample(d.Graph, d.TrainIdx[lo:lo+64])
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, blocks)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	ref := runEpochs(t, batches, 3)
	parallel.SetWorkers(8)
	if !bitsEqual(t, ref, runEpochs(t, batches, 3)) {
		t.Error("workers=8: 3-epoch weights differ in bits from the workers=1 run")
	}
}

// The micro-batch union covers the full batch exactly: every output index
// appears in exactly one group, so no gradient contribution is lost or
// double-counted (precondition of the equivalence above).
func TestPartitionCoversOutputs(t *testing.T) {
	d := testData(t)
	s := sample.New([]int{5, 5}, 1)
	blocks, err := s.Sample(d.Graph, d.TrainIdx[:64])
	if err != nil {
		t.Fatal(err)
	}
	last := blocks[len(blocks)-1]
	for _, k := range []int{2, 4} {
		groups, err := reg.BettyBatch{Seed: 9}.PartitionBatch(last, k)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, last.NumDst)
		for _, g := range groups {
			for _, idx := range g {
				seen[idx]++
			}
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("K=%d: output %d appears %d times", k, idx, n)
			}
		}
	}
}
