//go:build !amd64

package tensor

// useLanes is false off amd64: every kernel runs its Go loops on every
// column.
var useLanes = false

func addPairLanes(o0, o1, b, v0, v1 []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func addTermsLanes(o, b, v []float32, off []int) {
	panic("tensor: column lanes are amd64-only")
}

func aggLanes(o, h []float32, src []int32, wt, post []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func scatterLanes(o, g []float32, pos, rows []int32, scale, wt []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func biasLanes(o, bias []float32, n int, relu bool) {
	panic("tensor: column lanes are amd64-only")
}

func maskSumLanes(d, x, v, p []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func zeroLanes(a []float32) bool {
	panic("tensor: column lanes are amd64-only")
}
