// Package deep is the kernel side of the dettaint golden fixture: analyzed
// under betty/internal/sample/deep, its exported functions are taint entry
// points. The package itself is spotless under mapiter and dettaint's
// kernel-local pass — the nondeterminism lives two calls away in
// betty/app/taintutil, which is exactly the gap the interprocedural pass
// closes (see TestDettaintInterprocedural, which asserts the local pass
// stays blind here).
package deep

import "betty/app/taintutil"

// PlanBatches reaches time.Now through taintutil.Stamp → tag → now.
func PlanBatches(n int) int { return taintutil.Stamp(n) }

// PlanOrder reaches the global math/rand stream through taintutil.Shuffle,
// whose finding carries a reasoned suppression.
func PlanOrder(xs []int) { taintutil.Shuffle(xs) }

// planLocal is unexported: not an entry point, and it calls nothing tainted.
func planLocal(n int) int { return n * 2 }
