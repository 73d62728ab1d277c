package tensor

import (
	"math"
	"testing"

	"betty/internal/parallel"
	"betty/internal/rng"
)

// The fusion contract (DESIGN.md §13): every fused op produces bitwise the
// same forward values and gradients as the unfused chain it replaces, at any
// worker count. These tests run each (variant, workers) pair through both
// paths and require exact byte equality.

// fusedAggCase builds one aggregation problem: features h over nSrc sources,
// an edge list sorted by destination, optional weights, optional inverse
// degrees.
type fusedAggCase struct {
	name     string
	weighted bool
	scaled   bool
}

// buildCSR assembles the CSR view plus the matching unfused chain inputs.
func buildCSR(r *rng.RNG, nE, nDst, nSrc int, weighted, scaled bool) CSR {
	src, dst, _ := segmentEdges(r, nE, nDst, nSrc)
	c := CSR{Src: src, Dst: dst, NSrc: nSrc, NDst: nDst}
	if weighted {
		c.Wt = make([]float32, nE)
		for i := range c.Wt {
			c.Wt[i] = float32(r.Float64())
		}
	}
	if scaled {
		deg := make([]int, nDst)
		for _, d := range dst {
			deg[d]++
		}
		c.InvDeg = make([]float32, nDst)
		for d, k := range deg {
			if k > 0 {
				c.InvDeg[d] = 1 / float32(k)
			}
		}
	}
	c.InvCnt, c.InvPos = invertIndex(src, nSrc)
	return c
}

// unfusedAgg runs the primitive-op composition FusedCSRAgg replaces.
func unfusedAgg(tp *Tape, h *Var, c CSR) *Var {
	msgs := tp.GatherRows(h, c.Src)
	if c.Wt != nil {
		msgs = tp.MulRowsVec(msgs, Leaf(FromSlice(len(c.Wt), 1, c.Wt)))
	}
	sum := tp.SegmentSum(msgs, c.Dst, c.NDst)
	if c.InvDeg != nil {
		sum = tp.RowScale(sum, c.InvDeg)
	}
	return sum
}

// TestFusedCSRAggBitwise compares FusedCSRAgg against the unfused chain for
// every aggregation variant, forward and backward, at 1 and 8 workers.
func TestFusedCSRAggBitwise(t *testing.T) {
	const (
		nE   = 20000 // > 2*segEdgeGrain so the segment shards split
		nDst = 257
		nSrc = 5000
		feat = 16
	)
	cases := []fusedAggCase{
		{"sum", false, false},
		{"mean", false, true},
		{"weighted-sum", true, false},
		{"weighted-mean", true, true},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 8} {
			t.Run(tc.name, func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				run := func(fused bool) []float32 {
					r := rng.New(31)
					c := buildCSR(r, nE, nDst, nSrc, tc.weighted, tc.scaled)
					tp := NewTape()
					h := Param(randTensor(r, nSrc, feat))
					var out *Var
					if fused {
						out = tp.FusedCSRAgg(h, c)
					} else {
						out = unfusedAgg(tp, h, c)
					}
					return backprop(tp, out, randTensor(r, nDst, feat), h)
				}
				unfused := run(false)
				fused := run(true)
				if len(unfused) != len(fused) {
					t.Fatalf("result sizes differ: %d vs %d", len(unfused), len(fused))
				}
				for i := range unfused {
					if math.Float32bits(unfused[i]) != math.Float32bits(fused[i]) {
						t.Fatalf("workers=%d float %d differs: unfused %v vs fused %v", w, i, unfused[i], fused[i])
					}
				}
			})
		}
	}
}

// TestLinearBiasReLUBitwise compares LinearBiasReLU against the
// MatMul → AddBias → (ReLU) chain, forward and backward, with gradients
// flowing into the input, weight, and bias, at 1 and 8 workers. The input
// carries exact zeros (as post-ReLU activations do) so the matmul kernels'
// sparsity fast paths are exercised on both sides.
func TestLinearBiasReLUBitwise(t *testing.T) {
	const (
		m, k, n = 300, 67, 43 // k,n indivisible by 4: tiled kernels hit tails
	)
	for _, relu := range []bool{true, false} {
		for _, w := range []int{1, 8} {
			name := "linear"
			if relu {
				name = "linear-relu"
			}
			t.Run(name, func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				run := func(fused bool) []float32 {
					r := rng.New(41)
					tp := NewTape()
					xt := randTensor(r, m, k)
					for i := range xt.Data { // sprinkle exact zeros
						if r.Float64() < 0.5 {
							xt.Data[i] = 0
						}
					}
					x := Param(xt)
					wt := Param(randTensor(r, k, n))
					b := Param(randTensor(r, 1, n))
					var out *Var
					if fused {
						out = tp.LinearBiasReLU(x, wt, b, relu)
					} else {
						out = tp.AddBias(tp.MatMul(x, wt), b)
						if relu {
							out = tp.ReLU(out)
						}
					}
					return backprop(tp, out, randTensor(r, m, n), x, wt, b)
				}
				unfused := run(false)
				fused := run(true)
				if len(unfused) != len(fused) {
					t.Fatalf("result sizes differ: %d vs %d", len(unfused), len(fused))
				}
				for i := range unfused {
					if math.Float32bits(unfused[i]) != math.Float32bits(fused[i]) {
						t.Fatalf("workers=%d float %d differs: unfused %v vs fused %v", w, i, unfused[i], fused[i])
					}
				}
			})
		}
	}
}

// TestMatMulZeroSkipSemantics pins the sparsity fast path of the tiled
// kernels: an exactly-zero multiplier skips its term entirely, so NaN and
// Inf entries in the other operand's corresponding rows never contaminate
// the output. This is the semantic the pre-tiling kernels had; the blocked
// kernels must preserve it in full, partial, and mixed blocks.
func TestMatMulZeroSkipSemantics(t *testing.T) {
	const m, k, n = 3, 14, 5
	// Zero columns chosen to exercise every blocked-kernel case: a mixed
	// block (position 1 of block 0), an entirely-zero block (4..7), and a
	// zero in the scalar tail (13).
	zero := map[int]bool{1: true, 4: true, 5: true, 6: true, 7: true, 13: true}
	a := New(m, k)
	b := New(k, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			if !zero[kk] {
				a.Set(i, kk, float32(i+kk+1))
			}
		}
	}
	poison := []float32{float32(math.NaN()), float32(math.Inf(1))}
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			if zero[kk] {
				b.Set(kk, j, poison[(kk+j)%2])
			} else {
				b.Set(kk, j, float32(kk-j)*0.25)
			}
		}
	}
	out := MatMul(a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want float32
			for kk := 0; kk < k; kk++ {
				if !zero[kk] {
					want += a.At(i, kk) * b.At(kk, j)
				}
			}
			got := out.At(i, j)
			if math.IsNaN(float64(got)) || math.IsInf(float64(got), 0) {
				t.Fatalf("row %d col %d: %v leaked through a zero multiplier", i, j, got)
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got, want)
			}
		}
	}
	// The transposed kernels share the skip: aᵀ has the same zero rows.
	ta := MatMulTA(Transpose(a), b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if math.Float32bits(ta.At(i, j)) != math.Float32bits(out.At(i, j)) {
				t.Fatalf("MatMulTA row %d col %d: got %v want %v", i, j, ta.At(i, j), out.At(i, j))
			}
		}
	}
}
