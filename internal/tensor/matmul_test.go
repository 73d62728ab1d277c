package tensor

import (
	"fmt"
	"math"
	"testing"

	"betty/internal/parallel"
	"betty/internal/rng"
)

// MatMulTA computes aᵀ @ b into a new tensor.
func MatMulTA(a, b *Tensor) *Tensor {
	out := New(a.ColsN, b.ColsN)
	matMulTAInto(out, a, nil, b, false)
	return out
}

// MatMulTB computes a @ bᵀ into a new tensor.
func MatMulTB(a, b *Tensor) *Tensor {
	out := New(a.RowsN, b.RowsN)
	matMulTBInto(out, nil, a, b, false)
	return out
}

// gemm adds A·B into out: gemmInto with accum.
func gemm(out *Tensor, a operand, b, bias []float32, relu bool) {
	gemmInto(out, a, b, bias, relu, true)
}

// Transpose returns aᵀ as a new tensor.
func Transpose(a *Tensor) *Tensor {
	out := New(a.ColsN, a.RowsN)
	for i := 0; i < a.RowsN; i++ {
		for j := 0; j < a.ColsN; j++ {
			out.Data[j*a.RowsN+i] = a.Data[i*a.ColsN+j]
		}
	}
	return out
}

// FuzzMatMulOracle holds the three matmul kernels, with and without accum,
// at one and eight workers, bit for bit to the serial loops they replace:
// out (+)= A·B with each element adding its terms in ascending k and, for
// the forward and weight-gradient kernels, skipping every term whose
// multiplier is ±0. MatMulTB sums a plain dot product from +0 and then
// adds it to out, so its oracle does exactly that. A tile that reorders a
// single add, multiplies a zero through or drops a tail term fails here.
// Every input runs with gemm's column lanes on (where the CPU has them) and
// off, so the vector path and the Go loops are both held to the oracle.
//
// The inputs describe one product out[m×n] = A[m×k]·B[k×n], which the
// forward kernel reads as A and B, MatMulTA as Aᵀ stored k×m and MatMulTB
// as B stored transposed n×k. zeros is read in byte pairs (r, c), each
// setting A[r mod m][c mod k] to zero (to -0 when r ≥ 128). flags: bit 0
// zeroes every negative entry of A (ReLU sparsity), bit 1 puts ±Inf or NaN
// in B under each listed zero, bit 2 starts the accumulated output at -0
// instead of random values.
func FuzzMatMulOracle(f *testing.F) {
	const sparse, poison, negZero, late = 1, 2, 4, 8                  // late: every zero sits kChunk columns on
	f.Add(17, 9, 5, uint64(1), []byte{}, uint8(0))                    // odd m: a pair's tail row; k ≡ 1 mod 4
	f.Add(6, 14, 3, uint64(2), []byte{0, 3, 5, 13}, uint8(0))         // k ≡ 2 mod 4, a zero in the tail
	f.Add(33, 23, 7, uint64(3), []byte{}, uint8(sparse))              // k ≡ 3 mod 4, ReLU-sparse
	f.Add(33, 2*kChunk+7, 12, uint64(4), []byte{}, uint8(0))          // two chunk boundaries; shards of 16, 16, 1 rows
	f.Add(4, 2*kChunk+5, 3, uint64(5), []byte{1, 255}, uint8(sparse)) // the same, sparse
	f.Add(2, 8, 6, uint64(6), []byte{0, 2}, uint8(0))                 // only row 0 of the pair has a zero
	f.Add(4, 12, 5, uint64(7),
		[]byte{0, 1, 1, 1, 2, 1, 3, 1, 1, 6, 130, 9}, uint8(poison)) // NaN/Inf under zero multipliers
	f.Add(3, 5, 4, uint64(8),
		[]byte{1, 0, 1, 1, 129, 2, 1, 3, 129, 4}, uint8(negZero)) // a -0 accumulator over a zero row
	f.Add(5, 13, 7, uint64(9), []byte{}, uint8(0))                // n = 7: every column is tail
	f.Add(7, 9, 8, uint64(10), []byte{2, 4}, uint8(0))            // n = 8: one lane block, no tail
	f.Add(9, 2*kChunk+3, 47, uint64(11), []byte{}, uint8(sparse)) // n = 47 (products classes): 40 lanes + 7 tail
	f.Add(6, 70, 64, uint64(12), []byte{0, 5, 3, 66}, uint8(0))   // n = 64 (hidden): lanes only
	f.Add(4, 12, 21, uint64(13),
		[]byte{0, 1, 1, 1, 2, 1, 3, 1, 1, 6, 130, 9}, uint8(poison)) // NaN/Inf under zero multipliers, in lane columns
	f.Add(3, 5, 16, uint64(14),
		[]byte{1, 0, 1, 1, 129, 2, 1, 3, 129, 4}, uint8(negZero)) // a -0 accumulator in lane columns
	f.Add(5, kChunk+45, 43, uint64(15), []byte{1, kChunk - 1}, uint8(poison))   // dense rows beside one zero at k = 255
	f.Add(5, kChunk+45, 43, uint64(16), []byte{1, 0, 4, 0}, uint8(late|poison)) // and at k = 256, in a pair and the tail row
	// The register tile's edges: 4 rows × 16 columns, repeated rows for
	// m mod 4, blocks of 16 and 8 columns and a masked rest.
	f.Add(5, 40, 16, uint64(17), []byte{}, uint8(negZero))                    // m ≡ 1 mod 4; n = 16, one block
	f.Add(6, 70, 40, uint64(18), []byte{}, uint8(sparse|negZero))             // m ≡ 2 mod 4; n = 40 (arxiv's classes): 16, 16 and 8
	f.Add(7, 33, 17, uint64(19), []byte{}, uint8(0))                          // m ≡ 3 mod 4; n = 17: 16 and one masked column
	f.Add(8, 19, 15, uint64(20), []byte{5, 3}, uint8(poison))                 // n = 15: 8 and seven masked columns
	f.Add(8, 29, 8, uint64(21), []byte{}, uint8(negZero))                     // n = 8: one register per row, no mask
	f.Add(8, kChunk+20, 40, uint64(22), []byte{1, kChunk - 1}, uint8(poison)) // a zero at k = 255 inside a full tile
	f.Add(8, kChunk+20, 40, uint64(23), []byte{130, 0}, uint8(late|poison))   // a -0 at k = 256 inside a full tile
	f.Fuzz(func(t *testing.T, m, k, n int, seed uint64, zeros []byte, flags uint8) {
		if m < 1 || m > 40 || k < 1 || k > 2*kChunk+40 || n < 1 || n > 80 || len(zeros) > 512 {
			t.Skip("bounded problem sizes keep the fuzz fast")
		}
		r := rng.New(seed)
		a, b := New(m, k), New(k, n)
		a.Randn(r, 1)
		b.Randn(r, 1)
		if flags&sparse != 0 {
			relu(a)
		}
		specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for p := 0; p+1 < len(zeros); p += 2 {
			i, kk := int(zeros[p])%m, int(zeros[p+1])%k
			if flags&late != 0 {
				kk = (int(zeros[p+1]) + kChunk) % k
			}
			a.Set(i, kk, 0)
			if zeros[p] >= 128 {
				a.Set(i, kk, float32(math.Copysign(0, -1)))
			}
			if flags&poison != 0 {
				b.Set(kk, i%n, specials[(p/2)%len(specials)])
			}
		}
		init := New(m, n)
		init.Randn(r, 1)
		if flags&negZero != 0 {
			for i := range init.Data {
				init.Data[i] = float32(math.Copysign(0, -1))
			}
		}
		at, bt := Transpose(a), Transpose(b)
		kernels := []struct {
			name string
			skip bool
			run  func(out *Tensor, accum bool)
		}{
			{"MatMul", true, func(out *Tensor, accum bool) { matMulInto(out, a, b, accum) }},
			{"MatMulTA", true, func(out *Tensor, accum bool) { matMulTAInto(out, at, nil, b, accum) }},
			{"MatMulTB", false, func(out *Tensor, accum bool) { matMulTBInto(out, nil, a, bt, accum) }},
		}
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		defer setLanes(useLanes)
		for _, kn := range kernels {
			for _, accum := range []bool{false, true} {
				want := naiveMatMul(a, b, init, accum, kn.skip)
				for _, lanes := range laneSettings() {
					setLanes(lanes)
					for _, w := range []int{1, 8} {
						parallel.SetWorkers(w)
						out := init.Clone()
						kn.run(out, accum)
						for e, g := range out.Data {
							if !sameFloat(g, want[e]) {
								t.Fatalf("%s accum=%v lanes=%v workers=%d: out[%d][%d] = %v (%#08x), serial loop %v (%#08x)",
									kn.name, accum, lanes, w, e/n, e%n, g, math.Float32bits(g), want[e], math.Float32bits(want[e]))
							}
						}
					}
				}
			}
		}
	})
}

// FuzzLinearTwoBlockOracle holds the three matmul kernels as
// LinearBiasReLU runs them on a multiplier in two column blocks X = [X1 ‖
// X2] (m×f1 and m×f2), bit for bit to the serial loops over the
// concatenated X, with and without accum, with the column lanes on and off,
// at one and eight workers:
//
//	forward      out (+)= X·W        gemm walking k over X1, then X2
//	input grads  [G1 ‖ G2] (+)= dY·Wᵀ  one matMulTBInto writing both blocks,
//	                                  or either alone (the other untouched)
//	weight grad  dW (+)= Xᵀ·dY       rows [0, f1) read X1, the rest X2
//
// zeros and flags mean what they mean in FuzzMatMulOracle, on X (and, with
// poison, on W's rows under each listed zero).
func FuzzLinearTwoBlockOracle(f *testing.F) {
	const sparse, poison, negZero = 1, 2, 4
	f.Add(17, 5, 9, 7, uint64(1), []byte{}, uint8(0))                             // no width a multiple of 8
	f.Add(9, 131, 133, 43, uint64(2), []byte{1, 130, 4, 131}, uint8(0))           // f1+f2 > kChunk; zeros either side of the split
	f.Add(33, 100, 100, 47, uint64(3), []byte{}, uint8(sparse))                   // products' layer 0, ReLU-sparse
	f.Add(6, kChunk+3, 61, 64, uint64(4), []byte{0, kChunk - 1}, uint8(poison))   // block 1 spans two chunks
	f.Add(4, 1, 1, 8, uint64(5), []byte{129, 0}, uint8(negZero))                  // one column each, a -0 accumulator
	f.Add(21, 64, 64, 16, uint64(6), []byte{2, 63, 3, 64, 130, 1}, uint8(poison)) // the hidden layer: lanes only
	f.Add(9, 13, 64, 40, uint64(7), []byte{}, uint8(sparse))                      // f1 = 13: G1 ends masked, G2 starts mid-register
	f.Add(13, 64, 64, 16, uint64(8), []byte{}, uint8(negZero))                    // m ≡ 1 mod 4, a -0 accumulator
	f.Add(10, 200, 100, 17, uint64(9), []byte{3, kChunk - 1}, uint8(poison))      // a zero at k = 255 in a full tile; n = 17
	f.Add(11, 8, 21, 15, uint64(10), []byte{}, uint8(0))                          // m ≡ 3 mod 4, n = 15, f2 = 21
	f.Fuzz(func(t *testing.T, m, f1, f2, n int, seed uint64, zeros []byte, flags uint8) {
		if m < 1 || m > 40 || f1 < 1 || f2 < 1 || f1+f2 > 2*kChunk+40 || n < 1 || n > 80 || len(zeros) > 512 {
			t.Skip("bounded problem sizes keep the fuzz fast")
		}
		k := f1 + f2
		r := rng.New(seed)
		x, w, dy := New(m, k), New(k, n), New(m, n)
		x.Randn(r, 1)
		w.Randn(r, 1)
		dy.Randn(r, 1)
		if flags&sparse != 0 {
			relu(x)
		}
		specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for p := 0; p+1 < len(zeros); p += 2 {
			i, kk := int(zeros[p])%m, int(zeros[p+1])%k
			x.Set(i, kk, 0)
			if zeros[p] >= 128 {
				x.Set(i, kk, float32(math.Copysign(0, -1)))
			}
			if flags&poison != 0 {
				w.Set(kk, i%n, specials[(p/2)%len(specials)])
			}
		}
		x1, x2 := colRange(x, 0, f1), colRange(x, f1, k)
		start := func(rows, cols int) *Tensor {
			t := New(rows, cols)
			t.Randn(r, 1)
			if flags&negZero != 0 {
				for i := range t.Data {
					t.Data[i] = float32(math.Copysign(0, -1))
				}
			}
			return t
		}
		initOut, initDX, initDW := start(m, n), start(m, k), start(k, n)
		wt := Transpose(w)
		kernels := []struct {
			name string
			want func(accum bool) []float32
			run  func(accum bool) []float32
		}{
			{"forward", func(accum bool) []float32 { return naiveMatMul(x, w, initOut, accum, true) },
				func(accum bool) []float32 {
					out := initOut.Clone()
					if !accum {
						out.Zero()
					}
					gemm(out, colBlocks(x1, x2), w.Data, nil, false)
					return out.Data
				}},
			{"input-grads", func(accum bool) []float32 { return naiveMatMul(dy, wt, initDX, accum, false) },
				func(accum bool) []float32 {
					g1, g2 := colRange(initDX, 0, f1), colRange(initDX, f1, k)
					matMulTBInto(g1, g2, dy, w, accum)
					return concatCols(g1, g2).Data
				}},
			{"input-grad-1", func(accum bool) []float32 {
				want := naiveMatMul(dy, wt, initDX, accum, false)
				for i := range m { // block 2 is skipped: it keeps its start
					copy(want[i*k+f1:(i+1)*k], initDX.Row(i)[f1:])
				}
				return want
			}, func(accum bool) []float32 {
				g1 := colRange(initDX, 0, f1)
				matMulTBInto(g1, nil, dy, w, accum)
				return concatCols(g1, colRange(initDX, f1, k)).Data
			}},
			{"input-grad-2", func(accum bool) []float32 {
				want := naiveMatMul(dy, wt, initDX, accum, false)
				for i := range m { // block 1 is skipped: it keeps its start
					copy(want[i*k:i*k+f1], initDX.Row(i)[:f1])
				}
				return want
			}, func(accum bool) []float32 {
				g2 := colRange(initDX, f1, k)
				matMulTBInto(nil, g2, dy, w, accum)
				return concatCols(colRange(initDX, 0, f1), g2).Data
			}},
			{"weight-grad", func(accum bool) []float32 { return naiveMatMul(Transpose(x), dy, initDW, accum, true) },
				func(accum bool) []float32 {
					out := initDW.Clone()
					matMulTAInto(out, x1, x2, dy, accum)
					return out.Data
				}},
		}
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		defer setLanes(useLanes)
		for _, kn := range kernels {
			for _, accum := range []bool{false, true} {
				want := kn.want(accum)
				for _, lanes := range laneSettings() {
					setLanes(lanes)
					for _, wk := range []int{1, 8} {
						parallel.SetWorkers(wk)
						got := kn.run(accum)
						for e, g := range got {
							if !sameFloat(g, want[e]) {
								t.Fatalf("%s accum=%v lanes=%v workers=%d: value %d = %v (%#08x), serial loop %v (%#08x)",
									kn.name, accum, lanes, wk, e, g, math.Float32bits(g), want[e], math.Float32bits(want[e]))
							}
						}
					}
				}
			}
		}
	})
}

// TestMatMulEmptyInner runs the forward and input-gradient kernels with
// k = 0. Overwritten, an output becomes +0 though no term stores to it.
// Accumulated, the forward adds no term, so a -0 stays -0, while the input
// gradient adds its +0 dot product, so a -0 turns +0, as the serial loops
// do; and its second block starts past an empty bᵀ.
func TestMatMulEmptyInner(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	defer setLanes(useLanes)
	for _, lanes := range laneSettings() {
		setLanes(lanes)
		a := New(5, 0)
		for _, accum := range []bool{false, true} {
			out, o1, o2 := New(5, 6), New(5, 3), New(5, 4)
			for _, x := range []*Tensor{out, o1, o2} {
				x.Data[0], x.Data[1] = 7, negZero
			}
			matMulInto(out, a, New(0, 6), accum)
			matMulTBInto(o1, o2, a, New(7, 0), accum)
			for i, x := range []*Tensor{out, o1, o2} {
				want0, wantNeg := float32(0), false
				if accum {
					want0, wantNeg = 7, i == 0
				}
				if math.Float32bits(x.Data[0]) != math.Float32bits(want0) || math.Signbit(float64(x.Data[1])) != wantNeg || math.Float32bits(x.Data[2]) != 0 {
					t.Fatalf("lanes=%v accum=%v output %d: got %v; want %v then a zero with sign bit %v", lanes, accum, i, x.Data[:3], want0, wantNeg)
				}
			}
		}
	}
}

// colRange returns columns [lo, hi) of t as a new tensor.
func colRange(t *Tensor, lo, hi int) *Tensor {
	out := New(t.RowsN, hi-lo)
	for i := range t.RowsN {
		copy(out.Row(i), t.Row(i)[lo:hi])
	}
	return out
}

// concatCols returns [a ‖ b] as a new tensor.
func concatCols(a, b *Tensor) *Tensor {
	out := New(a.RowsN, a.ColsN+b.ColsN)
	for i := range a.RowsN {
		copy(out.Row(i), a.Row(i))
		copy(out.Row(i)[a.ColsN:], b.Row(i))
	}
	return out
}

// cpuLanes is useLanes as package init set it: whether this CPU can run the
// column lanes at all.
var cpuLanes = useLanes

// laneSettings lists the useLanes values a test can run here: on where the
// CPU has the lanes, and always off.
func laneSettings() []bool {
	if cpuLanes {
		return []bool{true, false}
	}
	return []bool{false}
}

// setLanes sets useLanes, the test-only toggle of gemm's column lanes. No
// kernel may be running: the pool's workers read the flag unsynchronized.
func setLanes(on bool) { useLanes = on }

// naiveMatMul is the serial loop the matmul kernels must reproduce bit for
// bit: out = init (accum) or +0, plus A·B. With skip each element adds its
// nonzero-multiplier terms one at a time in ascending k; without, it sums
// the full dot product from +0 first and then adds (or stores) it.
func naiveMatMul(a, b, init *Tensor, accum, skip bool) []float32 {
	m, k, n := a.RowsN, a.ColsN, b.ColsN
	out := make([]float32, m*n)
	if accum {
		copy(out, init.Data)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if skip {
				v := out[i*n+j]
				for kk := 0; kk < k; kk++ {
					if x := a.At(i, kk); math.Float32bits(x)<<1 != 0 {
						v += x * b.At(kk, j)
					}
				}
				out[i*n+j] = v
				continue
			}
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			if accum {
				out[i*n+j] += s
			} else {
				out[i*n+j] = s
			}
		}
	}
	return out
}

// sameFloat is bitwise equality, except that any two NaNs match: which
// operand's payload an add propagates is up to the hardware and to the
// compiler's operand order, not to the kernel's summation order.
func sameFloat(x, y float32) bool {
	if math.IsNaN(float64(x)) && math.IsNaN(float64(y)) {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// BenchmarkMatMulShapes times the three matmul kernels at the shapes the
// training and serving workloads run them, each written the way the tape
// calls it: the forward product overwrites its output, the two gradient
// products accumulate into theirs. A shape m×k→n is the layer's input
// (m rows, k features) and its output width n:
//
//	MM  out[m×n]  = X[m×k] · W[k×n]      (forward)
//	TA  dW[k×n] += X[m×k]ᵀ · dY[m×n]     (weight gradient)
//	TB  dX[m×k] += dY[m×n] · W[k×n]ᵀ     (input gradient)
//
// The left operand (X for MM and TA, dY for TB) is either dense or
// ReLU-sparse, about half of it exactly zero, since that is the operand
// whose zeros the kernels skip. Run with
//
//	go test -run '^$' -bench MatMulShapes ./internal/tensor/
func BenchmarkMatMulShapes(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{6500, 200, 64},
		{9968, 256, 64},
		{5400, 128, 40},
		{620, 128, 47},
		{80, 256, 64},
	}
	for _, s := range shapes {
		for _, sparse := range []bool{false, true} {
			r := rng.New(1)
			x, w, dy := New(s.m, s.k), New(s.k, s.n), New(s.m, s.n)
			x.Randn(r, 1)
			w.Randn(r, 1)
			dy.Randn(r, 1)
			density := "dense"
			if sparse {
				density = "relu"
				relu(x)
				relu(dy)
			}
			kernels := []struct {
				name string
				out  *Tensor
				run  func(out *Tensor)
			}{
				{"MM", New(s.m, s.n), func(out *Tensor) { matMulInto(out, x, w, false) }},
				{"TA", New(s.k, s.n), func(out *Tensor) { matMulTAInto(out, x, nil, dy, true) }},
				{"TB", New(s.m, s.k), func(out *Tensor) { matMulTBInto(out, nil, dy, w, true) }},
			}
			for _, kn := range kernels {
				for _, lanes := range laneSettings() {
					name := fmt.Sprintf("%s/%dx%d->%d/%s/lanes=%s", kn.name, s.m, s.k, s.n, density, onOff(lanes))
					b.Run(name, func(b *testing.B) {
						defer setLanes(useLanes)
						setLanes(lanes)
						for i := 0; i < b.N; i++ {
							kn.run(kn.out)
						}
						flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
						b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	}
}

// BenchmarkFusedCSRAgg times mean aggregation (FusedCSRAgg with InvDeg),
// forward and backward, with the column lanes on and off, at the feature
// widths the workloads aggregate: ogbn-products' layer 0 (F = 100),
// ogbn-arxiv's (F = 128) and the hidden layer (64). Each destination has
// deg edges from sources drawn uniformly; ns/edge is the time per edge of
// one full pass over all F columns. Run with
//
//	go test -run '^$' -bench FusedCSRAgg ./internal/tensor/
func BenchmarkFusedCSRAgg(b *testing.B) {
	shapes := []struct {
		name               string
		f, nDst, deg, nSrc int
	}{
		{"products-l0", 100, 2048, 10, 16384},
		{"arxiv-l0", 128, 2048, 10, 16384},
		{"hidden", 64, 512, 25, 2048},
	}
	for _, s := range shapes {
		r := rng.New(1)
		nE := s.nDst * s.deg
		c := buildCSR(r, nE, s.nDst, s.nSrc, false, true)
		h := Param(randTensor(r, s.nSrc, s.f))
		dOut := randTensor(r, s.nDst, s.f)
		for _, pass := range []string{"forward", "backward"} {
			for _, lanes := range laneSettings() {
				name := fmt.Sprintf("%s/F=%d/%s/lanes=%s", s.name, s.f, pass, onOff(lanes))
				b.Run(name, func(b *testing.B) {
					defer setLanes(useLanes)
					setLanes(lanes)
					tp := NewTape()
					defer tp.Release()
					out := tp.FusedCSRAgg(h, c) // the backward's op, and a warm pool
					out.Grad = dOut
					fwd := NewTape()
					fwd.FusedCSRAgg(h, c)
					fwd.Release()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if pass == "forward" {
							fwd.FusedCSRAgg(h, c)
							fwd.Release() // the next iteration takes the same buffer
						} else {
							out.back()
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nE), "ns/edge")
				})
			}
		}
	}
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// relu zeroes the non-positive entries of t in place.
func relu(t *Tensor) {
	for i, v := range t.Data {
		if v <= 0 {
			t.Data[i] = 0
		}
	}
}
