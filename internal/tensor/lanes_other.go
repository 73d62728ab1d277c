//go:build !amd64

package tensor

// useLanes is false off amd64: gemm runs its Go loops on every column.
var useLanes = false

func addPairLanes(o0, o1, b, v0, v1 []float32, n int) {
	panic("tensor: column lanes are amd64-only")
}

func addTermsLanes(o, b, v []float32, off []int) {
	panic("tensor: column lanes are amd64-only")
}
