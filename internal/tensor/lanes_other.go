//go:build !amd64

package tensor

// useLanes is false off amd64: every kernel runs its Go loops on every
// column.
var useLanes = false

func tileLanes(c, a *[4][]float32, b []float32, ldb, mode int) {
	panic("tensor: column lanes are amd64-only")
}

func rowLanes(c, b, v []float32, off []int, mode int) {
	panic("tensor: column lanes are amd64-only")
}

func transposeLanes(dst, src []float32, ks, ds, rows, cols int) {
	panic("tensor: column lanes are amd64-only")
}

func aggLanes(o, h []float32, src []int32, wt, post []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func scatterLanes(o, g []float32, pos, rows []int32, scale, wt []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func biasLanes(o, bias []float32, relu bool) {
	panic("tensor: column lanes are amd64-only")
}

func maskSumLanes(d, x, v, p []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func zeroLanes(a []float32) bool {
	panic("tensor: column lanes are amd64-only")
}
