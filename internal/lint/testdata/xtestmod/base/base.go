// Package base is a package whose external test imports one of its
// dependents: the loader must type-check that test against go list's
// "[xtestmod/base.test]" variants.
package base

// T is the value user hands back to base's external test.
type T struct{ N int }

func secret() int { return 7 }
