package tensor

// useLanes routes the matmul kernels' tile, row pass and panel copy, gemm's
// epilogue and zero scan, CSR aggregation and its backward, and the
// ReLU/bias backward pass through the AVX2 column lanes of lanes_amd64.s. It
// is decided once, from the CPU, and only tests change it.
var useLanes = haveAVX2()

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 bits 1 and 2).
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register XCR0.
func xgetbv() (eax, edx uint32)

// tileLanes is tile's pass for four rows: c[r] (mode)= a[r]·B over every
// column of c[0], with B[t] starting at b[t*ldb]. Nothing is
// bounds-checked: tile checks the shapes.
//
//go:noescape
func tileLanes(c, a *[4][]float32, b []float32, ldb, mode int)

// rowLanes is addRow's pass: c (mode)= Σ v[t]·b[off[t]:] over every column
// of c, for mode sumOnto or sumSet. Nothing is bounds-checked:
// off[t]+len(c) ≤ len(b) for every t < len(v) is the caller's to
// guarantee.
//
//go:noescape
func rowLanes(c, b, v []float32, off []int, mode int)

// transposeLanes is transpose's 8 × 8 blocks: dst[r*ds+t] = src[t*ks+r]
// for r < rows &^ 7 and t < cols &^ 7. Nothing is bounds-checked.
//
//go:noescape
func transposeLanes(dst, src []float32, ks, ds, rows, cols int)

// aggLanes sets o to one destination's aggregate on the columns of o, a
// multiple of 8 wide: for every column j,
//
//	o[j] = (+0 + h[src[0]*n+j]·wt[0] + … + h[src[last]*n+j]·wt[last]) · post[0]
//
// added left to right and rounded at each step, with the ·wt factors when wt
// is not empty and the ·post[0] scale when post is not empty. Nothing is
// bounds-checked: every src[t] must be a row of the n-wide h, and wt as long
// as src.
//
//go:noescape
func aggLanes(o, h []float32, src []int32, wt, post []float32, n int)

// scatterLanes adds to o, on its columns (a multiple of 8), the terms
// (g[r*n+j]·scale[r])·wt[e] for e = pos[t] in order, where r = rows[e], or e
// itself when rows is nil; a nil scale or wt drops that factor. Nothing is
// bounds-checked: every e must index rows and wt, and every r scale and the
// rows of the n-wide g.
//
//go:noescape
func scatterLanes(o, g []float32, pos, rows []int32, scale, wt []float32, n int)

// biasLanes adds bias[j] to o[i*n+j] for every row i of o and every
// column j < n = len(bias), then with relu clamps the sum to +0 unless it
// is greater than 0.
//
//go:noescape
func biasLanes(o, bias []float32, relu bool)

// maskSumLanes walks the rows of x (n wide) on columns j < n &^ 7. Each
// value y = x[i*n+j] is masked to +0 where v[i*n+j] is not greater than 0,
// and stored to d, when v is not nil; then p[j] += y when p is not nil, the
// rows added in order. d and v, when present, are as long as x.
//
//go:noescape
func maskSumLanes(d, x, v, p []float32, n int)

// zeroLanes reports whether any of a[:len(a) &^ 7] is ±0.
//
//go:noescape
func zeroLanes(a []float32) bool
