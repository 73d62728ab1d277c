package tensor

import (
	"math"
	"slices"
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
	c.Inverse = invertIndexOf(src, nSrc)
	return c
}

// inverse is a SrcInverter over a precomputed inverse.
type inverse struct{ cnt, pos []int32 }

func (v inverse) SrcInverse() (cnt, pos []int32) { return v.cnt, v.pos }

// invertIndexOf is src's inverse over nSrc rows as a SrcInverter.
func invertIndexOf(src []int32, nSrc int) inverse {
	cnt, pos := invertIndex(src, nSrc)
	return inverse{cnt, pos}
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
		feat = 41 // a 32-column block, an 8-column block and a one-column tail
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

// TestLinearBiasReLUBitwise compares LinearBiasReLU, whose gemm adds the
// bias and clamps in its epilogue, against the MatMul → AddBias → (ReLU)
// chain, whose gemm has none, forward and backward, with gradients flowing
// into the input, weight, and bias, at 1 and 8 workers and with the column
// lanes on and off. The first shape's input carries exact zeros (as
// post-ReLU activations do) so the matmul kernels' sparsity fast paths are
// exercised on both sides; the second's rows are dense beside rows with a
// single zero on either side of the kChunk boundary (k = 255 and 256), so
// dense rows run unpacked next to packed ones, in pairs and alone. The
// two-block shapes pass the input as two column blocks, against the chain
// with a ConcatCols in front, and check both blocks' gradients.
func TestLinearBiasReLUBitwise(t *testing.T) {
	sprinkle := func(r *rng.RNG, x *Tensor) {
		for i := range x.Data { // sprinkle exact zeros
			if r.Float64() < 0.5 {
				x.Data[i] = 0
			}
		}
	}
	dense := func(r *rng.RNG, x *Tensor) {
		x.Set(1, kChunk-1, 0)
		x.Set(4, kChunk, 0)
		x.Set(8, kChunk-1, 0)
	}
	shapes := []struct {
		name    string // prefix of the subtest names
		m, k, n int    // k,n indivisible by 4: tiled kernels hit tails
		split   int    // cols of the first block; 0 = one block
		zeros   func(r *rng.RNG, x *Tensor)
	}{
		{"", 300, 67, 43, 0, sprinkle},
		{"dense-", 9, kChunk + 45, 43, 0, dense},
		{"two-block-", 300, 67, 43, 30, sprinkle},
		{"dense-two-block-", 9, kChunk + 45, 43, 101, dense},
	}
	defer setLanes(useLanes)
	for _, s := range shapes {
		for _, relu := range []bool{true, false} {
			for _, lanes := range laneSettings() {
				for _, w := range []int{1, 8} {
					name := s.name + "linear"
					if relu {
						name += "-relu"
					}
					t.Run(name, func(t *testing.T) {
						setLanes(lanes)
						defer parallel.SetWorkers(parallel.SetWorkers(w))
						run := func(fused bool) []float32 {
							r := rng.New(41)
							tp := NewTape()
							xt := randTensor(r, s.m, s.k)
							s.zeros(r, xt)
							x := Param(xt)
							wt := Param(randTensor(r, s.k, s.n))
							b := Param(randTensor(r, 1, s.n))
							if s.split == 0 {
								var out *Var
								if fused {
									out = tp.LinearBiasReLU(x, nil, wt, b, relu)
								} else {
									out = tp.AddBias(tp.MatMul(x, wt), b)
									if relu {
										out = tp.ReLU(out)
									}
								}
								return backprop(tp, out, randTensor(r, s.m, s.n), x, wt, b)
							}
							x1, x2 := Param(colRange(xt, 0, s.split)), Param(colRange(xt, s.split, s.k))
							var out *Var
							if fused {
								out = tp.LinearBiasReLU(x1, x2, wt, b, relu)
							} else {
								out = tp.AddBias(tp.MatMul(tp.ConcatCols(x1, x2), wt), b)
								if relu {
									out = tp.ReLU(out)
								}
							}
							return backprop(tp, out, randTensor(r, s.m, s.n), x1, x2, wt, b)
						}
						unfused := run(false)
						fused := run(true)
						if len(unfused) != len(fused) {
							t.Fatalf("result sizes differ: %d vs %d", len(unfused), len(fused))
						}
						for i := range unfused {
							if math.Float32bits(unfused[i]) != math.Float32bits(fused[i]) {
								t.Fatalf("lanes=%v workers=%d float %d differs: unfused %v vs fused %v", lanes, w, i, unfused[i], fused[i])
							}
						}
					})
				}
			}
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

// FuzzCSRAggOracle holds FusedCSRAgg's four variants (sum, mean, weighted
// sum, weighted mean), forward and backward, and GatherRows' backward, which
// shares the aggregation backward's kernel, bitwise to serial float32 loops,
// with the column lanes on and off, at one and eight workers. The seeds'
// widths reach every column path: all tail (1, 7), one 8-column block (8),
// 8-column blocks plus tail (31), one 32-column block (32, 33), 32-column
// blocks only (64), 32 plus tail (100) and 32 plus 8 plus tail (129).
// Values ±0, ±Inf and NaN go into h, destinations are left without edges,
// and every output is first handed a pooled buffer full of poison, so a
// row the kernel fails to write shows.
func FuzzCSRAggOracle(f *testing.F) {
	const holes = 1 // every even destination, 0 included, has no edges
	f.Add(1, 5, 9, 40, uint64(1), []byte{}, uint8(0))
	f.Add(7, 6, 4, 30, uint64(2), []byte{0, 3, 2}, uint8(holes))
	f.Add(8, 9, 12, 50, uint64(3), []byte{1, 2, 0, 4, 5, 1}, uint8(0))
	f.Add(31, 13, 10, 60, uint64(4), []byte{2, 30, 4}, uint8(holes))
	f.Add(32, 8, 16, 70, uint64(5), []byte{0, 0, 1, 3, 31, 2, 5, 7, 3}, uint8(holes))
	f.Add(33, 20, 8, 90, uint64(6), []byte{6, 32, 4, 1, 9, 2}, uint8(0))
	f.Add(64, 17, 21, 80, uint64(7), []byte{3, 40, 0, 4, 63, 1}, uint8(holes))
	f.Add(100, 25, 30, 120, uint64(8), []byte{0, 99, 4, 2, 96, 3}, uint8(0))
	f.Add(129, 11, 7, 45, uint64(9), []byte{1, 128, 2, 5, 100, 4, 7, 120, 3}, uint8(holes))
	f.Add(24, 300, 7, 0, uint64(10), []byte{}, uint8(0))                             // no edges at all
	f.Add(9, 300, 41, 2*segEdgeGrain+300, uint64(11), []byte{5, 1, 4}, uint8(holes)) // three shards, edgeless rows at the cuts
	f.Add(9, 1, 3, 6, uint64(12), []byte{0, 0, 1, 0, 8, 1}, uint8(0))                // -0 in a lane and the tail: +0 + -0 is +0
	f.Fuzz(func(t *testing.T, n, nSrc, nDst, nE int, seed uint64, specials []byte, flags uint8) {
		if n < 1 || n > 160 || nSrc < 1 || nSrc > 400 || nDst < 1 || nDst > 400 ||
			nE < 0 || nE > 3*segEdgeGrain || len(specials) > 96 {
			t.Skip("bounded problem sizes keep the fuzz fast")
		}
		r := rng.New(seed)
		src, dst := make([]int32, nE), make([]int32, nE)
		for e := range dst {
			src[e] = int32(r.Intn(nSrc))
			dst[e] = int32(r.Intn(nDst))
		}
		slices.Sort(dst)
		if flags&holes != 0 && nDst > 1 {
			for e, d := range dst {
				if d |= 1; int(d) >= nDst {
					d -= 2
				}
				dst[e] = d
			}
		}
		h := randTensor(r, nSrc, n)
		vals := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for p := 0; p+2 < len(specials); p += 3 {
			h.Set(int(specials[p])%nSrc, int(specials[p+1])%n, vals[int(specials[p+2])%len(vals)])
		}
		wt := make([]float32, nE)
		for e := range wt {
			wt[e] = float32(r.Norm())
		}
		deg := make([]int, nDst)
		for _, d := range dst {
			deg[d]++
		}
		inv := make([]float32, nDst)
		for d, k := range deg {
			inv[d] = float32(r.Float64()) // edgeless: any finite, non-negative scale
			if k > 0 {
				inv[d] = 1 / float32(k)
			}
		}
		srcInv := invertIndexOf(src, nSrc)

		type variant struct {
			name      string
			c         CSR
			gather    bool
			rows      int
			wantOut   []float32
			wantGrads []float32
		}
		var variants []variant
		for _, v := range []struct {
			name            string
			weighted, scale bool
		}{{"sum", false, false}, {"mean", false, true}, {"weighted-sum", true, false}, {"weighted-mean", true, true}} {
			c := CSR{Src: src, Dst: dst, Inverse: srcInv, NSrc: nSrc, NDst: nDst}
			if v.weighted {
				c.Wt = wt
			}
			if v.scale {
				c.InvDeg = inv
			}
			variants = append(variants, variant{name: v.name, c: c, rows: nDst})
		}
		variants = append(variants, variant{name: "gather", c: CSR{Src: src}, gather: true, rows: nE})
		noise := map[int]*Tensor{nDst: randTensor(r, nDst, n), nE: randTensor(r, nE, n)}
		for i := range variants {
			v := &variants[i]
			v.wantOut, v.wantGrads = serialAgg(h, v.c, v.gather, noise[v.rows])
		}

		defer parallel.SetWorkers(parallel.SetWorkers(1))
		defer setLanes(useLanes)
		for _, v := range variants {
			for _, lanes := range laneSettings() {
				setLanes(lanes)
				for _, w := range []int{1, 8} {
					parallel.SetWorkers(w)
					poisonPool(v.rows * n)
					tp := NewTape()
					hv := Param(h)
					var out *Var
					if v.gather {
						out = tp.GatherRows(hv, v.c.Src)
					} else {
						out = tp.FusedCSRAgg(hv, v.c)
					}
					tp.Backward(tp.Sum(tp.Mul(out, Leaf(noise[v.rows]))))
					for e, g := range out.Value.Data {
						if !sameFloat(g, v.wantOut[e]) {
							t.Fatalf("%s lanes=%v workers=%d: out[%d][%d] = %v (%#08x), serial loop %v (%#08x)",
								v.name, lanes, w, e/n, e%n, g, math.Float32bits(g), v.wantOut[e], math.Float32bits(v.wantOut[e]))
						}
					}
					for e, g := range hv.Grad.Data {
						if !sameFloat(g, v.wantGrads[e]) {
							t.Fatalf("%s lanes=%v workers=%d: dh[%d][%d] = %v (%#08x), serial loop %v (%#08x)",
								v.name, lanes, w, e/n, e%n, g, math.Float32bits(g), v.wantGrads[e], math.Float32bits(v.wantGrads[e]))
						}
					}
					tp.Release()
				}
			}
		}
	})
}

// serialAgg is the serial float32 loop FusedCSRAgg must reproduce: each
// destination with edges adds w·h[src] (or h[src]) for its edges in
// ascending order into +0 and is then scaled by InvDeg; a destination with
// none is +0. The gradient of h adds, for every edge in ascending order,
// (dOut[dst]·InvDeg[dst])·w into dh[src], from +0. With gather it is
// GatherRows(h, c.Src) instead: out[e] = h[src[e]] and dh[src[e]] += dOut[e].
// Every product and sum is rounded to float32 on its own.
func serialAgg(h *Tensor, c CSR, gather bool, dOut *Tensor) (out, dh []float32) {
	n := h.ColsN
	dh = make([]float32, h.Len())
	if gather {
		out = make([]float32, len(c.Src)*n)
		for e, s := range c.Src {
			copy(out[e*n:(e+1)*n], h.Row(int(s)))
			for j := 0; j < n; j++ {
				dh[int(s)*n+j] += dOut.At(e, j)
			}
		}
		return out, dh
	}
	out = make([]float32, c.NDst*n)
	has := make([]bool, c.NDst)
	for e, s := range c.Src {
		d := int(c.Dst[e])
		has[d] = true
		for j := 0; j < n; j++ {
			x := h.At(int(s), j)
			if c.Wt != nil {
				x = float32(x * c.Wt[e])
			}
			out[d*n+j] += x
		}
	}
	for d := range has {
		for j := 0; has[d] && c.InvDeg != nil && j < n; j++ {
			out[d*n+j] *= c.InvDeg[d]
		}
	}
	for e, s := range c.Src {
		d := int(c.Dst[e])
		for j := 0; j < n; j++ {
			x := dOut.At(d, j)
			if c.InvDeg != nil {
				x = float32(x * c.InvDeg[d])
			}
			if c.Wt != nil {
				x = float32(x * c.Wt[e])
			}
			dh[int(s)*n+j] += x
		}
	}
	return out, dh
}

// poisonPool leaves a pooled buffer of at least n floats, every one of them
// 1e30, on top of its size class, so the next tape output of that size
// starts from values no kernel computes.
func poisonPool(n int) {
	s := acquire(n)
	for i := range s {
		s[i] = 1e30
	}
	release(s)
}
