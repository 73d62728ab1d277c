package tensor

// useLanes routes gemm's 4-term groups through the AVX2 column lanes of
// lanes_amd64.s. It is decided once, from the CPU, and only tests change it.
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

// addPairLanes is addPair's 4-term groups on the columns of o0: for every
// group t (len(v0)/4 of them) and column j < len(o0), a multiple of 8,
//
//	o0[j] = o0[j] + v0[t]·B[t][j] + v0[t+1]·B[t+1][j] + … + v0[t+3]·B[t+3][j]
//
// added left to right and rounded at each step, and the same for o1 with
// v1, where B[t] starts at b[t*n] and lies inside b.
//
//go:noescape
func addPairLanes(o0, o1, b, v0, v1 []float32, n int)

// addTermsLanes is addTerms' 4-term groups on the columns of o, a multiple
// of 8 wide: the same sum as addPairLanes for one row, with B[t] starting at
// b[off[t]]. Nothing is bounds-checked: off[t]+len(o) ≤ len(b) for every t
// is the caller's to guarantee.
//
//go:noescape
func addTermsLanes(o, b, v []float32, off []int)
