// Package parallel is a minimal stand-in for betty/internal/parallel with
// just enough API surface (Workers, SetWorkers, For/ForShards/MapReduce)
// for the dettaint and hotalloc golden tests to type-check against.
package parallel

var workers = 1

func Workers() int { return workers }

func SetWorkers(n int) int { old := workers; workers = n; return old }

func For(n, grain int, body func(lo, hi int)) { body(0, n) }

func ForShards(bounds []int, body func(lo, hi int)) {
	for i := 1; i < len(bounds); i++ {
		body(bounds[i-1], bounds[i])
	}
}

func MapReduce(n, grain int, mapper func(lo, hi int) int, reduce func(a, b int) int) int {
	return mapper(0, n)
}
