// Package user depends on base, so base's external test, which imports
// it, needs a variant of user built against base's test variant.
package user

import "xtestmod/base"

// Wrap returns n as a base.T.
func Wrap(n int) base.T { return base.T{N: n} }
