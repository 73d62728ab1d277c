// Package taintutil is the other half of the dettaint scope golden: a
// helper package outside every kernel prefix, analyzed under
// betty/app/taintutil, that the kernel fixture taintentry imports. Its
// sinks are reported because of that import, wherever they sit in the
// package: the scope is the import closure of the kernel packages.
package taintutil

import "time"

// Stamp is what the kernel calls; the sink is two hops down.
func Stamp(n int) int { return tag(n) }

func tag(n int) int { return n + int(now().UnixNano()) }

func now() time.Time {
	return time.Now() // want dettaint
}

// overBudget carries a reasoned suppression.
func overBudget(start time.Time) bool {
	//bettyvet:ok dettaint golden fixture: suppressed finding in a kernel-imported package // want-sup+1 dettaint
	return time.Since(start) > time.Second
}
