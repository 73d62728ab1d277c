package tensor

import (
	"math"
	"testing"

	"betty/internal/parallel"
	"betty/internal/rng"
)

// The parallel-kernel contract: every op's forward value and backward
// gradients are bitwise-identical at any worker count, because shard
// boundaries depend only on the problem (sizes, dst segments) and every
// accumulation folds in the serial order. These tests run each op at 1 and
// 8 workers over inputs big enough to actually split into multiple shards
// (elemGrain = 32768 elements, segEdgeGrain = 8192 edges) and require
// exact equality of values, loss, and input gradients.

// randTensor fills a rows x cols tensor from a fixed stream.
func randTensor(r *rng.RNG, rows, cols int) *Tensor {
	t := New(rows, cols)
	t.Randn(r, 1)
	return t
}

// segmentEdges builds a sorted-by-destination edge list of nE edges over
// nSeg segments and nSrc sources, plus an unsorted permutation of dst.
func segmentEdges(r *rng.RNG, nE, nSeg, nSrc int) (src, dst, unsorted []int32) {
	src = make([]int32, nE)
	dst = make([]int32, nE)
	for e := 0; e < nE; e++ {
		src[e] = int32(r.Intn(nSrc))
		dst[e] = int32(e * nSeg / nE) // non-decreasing, covers all segments
	}
	unsorted = make([]int32, nE)
	copy(unsorted, dst)
	for i := nE - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		unsorted[i], unsorted[j] = unsorted[j], unsorted[i]
	}
	return src, dst, unsorted
}

// backprop drives a backward pass with non-uniform upstream gradients
// (loss = sum(out * noise)), so accumulation-order bugs can't hide behind
// symmetric values, and returns the flattened (out, loss, grads...) bytes.
func backprop(tp *Tape, out *Var, noise *Tensor, inputs ...*Var) []float32 {
	loss := tp.Sum(tp.Mul(out, Leaf(noise)))
	tp.Backward(loss)
	res := append([]float32(nil), out.Value.Data...)
	res = append(res, loss.Value.Data...)
	for _, in := range inputs {
		if in.Grad != nil {
			res = append(res, in.Grad.Data...)
		}
	}
	return res
}

// parallelOpCases enumerates one closure per parallelized op; each builds
// fresh inputs from a fixed seed, runs forward+backward, and returns every
// result float. Running a case twice must produce identical bytes.
func parallelOpCases() map[string]func() []float32 {
	const (
		m, n = 250, 150 // m*n > elemGrain: elementwise ops split
		nE   = 20000    // > 2*segEdgeGrain: segment ops split
		nSeg = 257
		nSrc = 5000
		feat = 16
	)
	cases := map[string]func() []float32{}

	elementwise := map[string]func(tp *Tape, a, b *Var) *Var{
		"Add":       func(tp *Tape, a, b *Var) *Var { return tp.Add(a, b) },
		"Mul":       func(tp *Tape, a, b *Var) *Var { return tp.Mul(a, b) },
		"Scale":     func(tp *Tape, a, b *Var) *Var { return tp.Scale(a, 1.7) },
		"ReLU":      func(tp *Tape, a, b *Var) *Var { return tp.ReLU(a) },
		"LeakyReLU": func(tp *Tape, a, b *Var) *Var { return tp.LeakyReLU(a, 0.2) },
		"Sigmoid":   func(tp *Tape, a, b *Var) *Var { return tp.Sigmoid(a) },
		"Tanh":      func(tp *Tape, a, b *Var) *Var { return tp.Tanh(a) },
	}
	for name, op := range elementwise {
		op := op
		cases[name] = func() []float32 {
			r := rng.New(11)
			tp := NewTape()
			a := Param(randTensor(r, m, n))
			b := Param(randTensor(r, m, n))
			return backprop(tp, op(tp, a, b), randTensor(r, m, n), a, b)
		}
	}

	cases["AddBias"] = func() []float32 {
		r := rng.New(12)
		tp := NewTape()
		a := Param(randTensor(r, m, n))
		b := Param(randTensor(r, 1, n))
		return backprop(tp, tp.AddBias(a, b), randTensor(r, m, n), a, b)
	}
	cases["MatMul"] = func() []float32 {
		r := rng.New(13)
		tp := NewTape()
		a := Param(randTensor(r, m, 64))
		b := Param(randTensor(r, 64, n))
		return backprop(tp, tp.MatMul(a, b), randTensor(r, m, n), a, b)
	}
	cases["ConcatCols"] = func() []float32 {
		r := rng.New(14)
		tp := NewTape()
		a := Param(randTensor(r, m, n))
		b := Param(randTensor(r, m, 40))
		return backprop(tp, tp.ConcatCols(a, b), randTensor(r, m, n+40), a, b)
	}
	cases["SliceRows"] = func() []float32 {
		r := rng.New(15)
		tp := NewTape()
		a := Param(randTensor(r, m, n))
		return backprop(tp, tp.SliceRows(a, 3, m-7), randTensor(r, m-10, n), a)
	}
	cases["SliceCols"] = func() []float32 {
		r := rng.New(16)
		tp := NewTape()
		a := Param(randTensor(r, m, n))
		return backprop(tp, tp.SliceCols(a, 5, n-5), randTensor(r, m, n-10), a)
	}
	cases["GatherRows"] = func() []float32 {
		r := rng.New(17)
		tp := NewTape()
		a := Param(randTensor(r, nSrc, feat))
		idx := make([]int32, nE)
		for i := range idx {
			idx[i] = int32(r.Intn(nSrc))
		}
		return backprop(tp, tp.GatherRows(a, idx), randTensor(r, nE, feat), a)
	}
	cases["ScatterRows"] = func() []float32 {
		r := rng.New(18)
		tp := NewTape()
		rows := 6000
		a := Param(randTensor(r, rows, feat))
		idx := make([]int32, rows)
		for i := range idx {
			idx[i] = int32(i)
		}
		for i := rows - 1; i > 0; i-- { // random distinct placement
			j := r.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return backprop(tp, tp.ScatterRows(a, idx, rows+100), randTensor(r, rows+100, feat), a)
	}
	cases["RowScale"] = func() []float32 {
		r := rng.New(19)
		tp := NewTape()
		rows := 6000
		a := Param(randTensor(r, rows, feat))
		scale := make([]float32, rows)
		for i := range scale {
			scale[i] = float32(r.Float64())
		}
		return backprop(tp, tp.RowScale(a, scale), randTensor(r, rows, feat), a)
	}
	cases["MulRowsVec"] = func() []float32 {
		r := rng.New(20)
		tp := NewTape()
		rows := 6000
		a := Param(randTensor(r, rows, feat))
		w := Param(randTensor(r, rows, 1))
		return backprop(tp, tp.MulRowsVec(a, w), randTensor(r, rows, feat), a, w)
	}
	cases["SoftmaxCrossEntropy"] = func() []float32 {
		r := rng.New(22)
		tp := NewTape()
		rows, classes := 9000, 10
		logits := Param(randTensor(r, rows, classes))
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(r.Intn(classes+1)) - 1 // some masked (-1)
		}
		loss := tp.SoftmaxCrossEntropy(logits, labels)
		tp.Backward(loss)
		res := append([]float32(nil), loss.Value.Data...)
		return append(res, logits.Grad.Data...)
	}

	segment := map[string]func(tp *Tape, a *Var, src, dst []int32) *Var{
		"SegmentSum": func(tp *Tape, a *Var, src, dst []int32) *Var {
			return tp.SegmentSum(a, dst, nSeg)
		},
		"SegmentMax": func(tp *Tape, a *Var, src, dst []int32) *Var {
			return tp.SegmentMax(a, dst, nSeg)
		},
	}
	for name, op := range segment {
		op := op
		for _, sorted := range []bool{true, false} {
			seed := uint64(23)
			key := name + "/sorted"
			if !sorted {
				key = name + "/unsorted" // single serial shard fallback
			}
			sortedCase := sorted
			cases[key] = func() []float32 {
				r := rng.New(seed)
				tp := NewTape()
				src, dst, unsorted := segmentEdges(r, nE, nSeg, nSrc)
				_ = src
				d := dst
				if !sortedCase {
					d = unsorted
				}
				a := Param(randTensor(r, nE, feat))
				return backprop(tp, op(tp, a, src, d), randTensor(r, nSeg, feat), a)
			}
		}
	}
	cases["SegmentSoftmax"] = func() []float32 {
		r := rng.New(25)
		tp := NewTape()
		_, dst, _ := segmentEdges(r, nE, nSeg, nSrc)
		scores := Param(randTensor(r, nE, 1))
		return backprop(tp, tp.SegmentSoftmax(scores, dst, nSeg), randTensor(r, nE, 1), scores)
	}
	return cases
}

// TestParallelKernelsBitwiseDeterministic runs every parallelized op at 1
// and 8 workers and requires identical bytes for forward values, loss, and
// gradients.
func TestParallelKernelsBitwiseDeterministic(t *testing.T) {
	for name, run := range parallelOpCases() {
		t.Run(name, func(t *testing.T) {
			parallel.SetWorkers(1)
			serial := run()
			parallel.SetWorkers(8)
			defer parallel.SetWorkers(parallel.SetWorkers(0))
			par := run()
			if len(serial) != len(par) {
				t.Fatalf("result sizes differ: %d vs %d", len(serial), len(par))
			}
			for i := range serial {
				if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
					t.Fatalf("float %d differs: serial %v vs 8 workers %v", i, serial[i], par[i])
				}
			}
		})
	}
}

// TestParallelKernelsPoolInvariant runs every op with the buffer pool on
// (twice, so the second pass reuses recycled buffers) and off, requiring
// identical bytes: acquired slices are zeroed, so pooling is invisible.
func TestParallelKernelsPoolInvariant(t *testing.T) {
	for name, run := range parallelOpCases() {
		t.Run(name, func(t *testing.T) {
			defer SetPooling(SetPooling(false))
			unpooled := run()
			SetPooling(true)
			DrainPool()
			run() // fill the pool
			pooled := run()
			if len(unpooled) != len(pooled) {
				t.Fatalf("result sizes differ: %d vs %d", len(unpooled), len(pooled))
			}
			for i := range unpooled {
				if math.Float32bits(unpooled[i]) != math.Float32bits(pooled[i]) {
					t.Fatalf("float %d differs: pool off %v vs on %v", i, unpooled[i], pooled[i])
				}
			}
		})
	}
}

// TestSegmentBounds checks the shard decomposition invariants directly:
// boundaries fall only where dst changes, every shard has >= grain edges
// (except the last), and unsorted input collapses to one shard.
func TestSegmentBounds(t *testing.T) {
	dst := make([]int32, 10000)
	for i := range dst {
		dst[i] = int32(i / 37)
	}
	bounds := segmentBounds(dst, 1024)
	if bounds[0] != 0 || bounds[len(bounds)-1] != len(dst) {
		t.Fatalf("bounds do not cover the range: %v", bounds)
	}
	for s := 1; s < len(bounds)-1; s++ {
		b := bounds[s]
		if dst[b] == dst[b-1] {
			t.Fatalf("boundary %d splits segment %d", b, dst[b])
		}
		if b-bounds[s-1] < 1024 {
			t.Fatalf("shard %d has %d < grain edges", s, b-bounds[s-1])
		}
	}
	unsorted := []int32{3, 1, 2}
	if got := segmentBounds(unsorted, 1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("unsorted dst should collapse to one shard, got %v", got)
	}
	if got := segmentBounds(nil, 8); got != nil {
		t.Fatalf("empty dst should have no shards, got %v", got)
	}
}

// TestInvertIndex checks the counting-sort inverse: each target's
// positions are ascending and exactly the occurrences of that target.
func TestInvertIndex(t *testing.T) {
	idx := []int32{2, 0, 2, 1, 0, 2}
	cnt, pos := invertIndex(idx, 4)
	want := [][]int32{{1, 4}, {3}, {0, 2, 5}, {}}
	for r := 0; r < 4; r++ {
		got := pos[cnt[r]:cnt[r+1]]
		if len(got) != len(want[r]) {
			t.Fatalf("row %d: got %v want %v", r, got, want[r])
		}
		for i := range got {
			if got[i] != want[r][i] {
				t.Fatalf("row %d: got %v want %v", r, got, want[r])
			}
		}
	}
}
