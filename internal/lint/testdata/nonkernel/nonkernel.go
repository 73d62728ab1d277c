// Package nonkernel holds the same patterns the kernel-scoped analyzers
// flag, placed under a non-kernel import path: none of them may be reported.
package nonkernel

import (
	"math/rand"
	"runtime"
	"time"
)

func jitter() time.Duration {
	return time.Duration(rand.Intn(int(time.Now().UnixNano()%1000 + 1)))
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func procs() int { return runtime.NumCPU() }

// The annotation below silences nothing — nothing here is a kernel package
// or reachable from one, so dettaint reports no sink — and the suppression
// audit must flag it as stale.
//
//bettyvet:ok dettaint deliberately stale annotation for the audit golden // want-stale
func annotatedForNothing(since time.Time) time.Duration {
	return time.Since(since)
}
