// Package deep is the kernel side of the dettaint scope golden: analyzed
// under betty/internal/sample/deep it is a kernel package, so every
// module package it imports is scanned too. Its own code is spotless; the
// sinks live in betty/app/taintutil, which only this import puts in scope.
// It also imports obs, the one exempt package, whose realClock reads the
// wall clock unflagged.
package deep

import (
	"betty/app/taintutil"
	"betty/internal/obs"
)

// PlanBatches reaches time.Now through taintutil.Stamp.
func PlanBatches(n int) int { return taintutil.Stamp(n) }

// Traced times its work through obs, whose clock is injected.
func Traced(r *obs.Registry, n int) int {
	sp := r.StartSpan("plan")
	defer sp.End()
	return n * 2
}
