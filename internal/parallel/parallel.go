// Package parallel provides the worker pool behind every multi-core hot
// path in the repository: the row-blocked matmul kernels, REG pair
// emission, and chunk-parallel evaluation.
//
// The package is built around one invariant: *the decomposition of work is
// independent of the worker count*. For splits [0, n) into ceil(n/grain)
// contiguous shards determined only by n and grain; the number of workers
// controls how many shards execute concurrently, never where the shard
// boundaries fall. Any algorithm whose output depends only on the shard
// structure (for example, per-shard partial sums combined in shard order)
// is therefore bitwise-deterministic: SetWorkers(1) and SetWorkers(64)
// produce identical bytes.
//
// The worker count defaults to GOMAXPROCS and can be overridden by
// SetWorkers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the current concurrency bound (always >= 1).
var workers atomic.Int64

func init() {
	workers.Store(int64(defaultWorkers()))
}

// --- persistent worker pool ---
//
// Earlier revisions spawned fresh goroutines (and a WaitGroup) on every
// parallel call, which showed up as ~200 extra allocations per training
// step at eight workers (the step benchmark/'s train_compute workload
// times). The pool below keeps long-lived workers fed through a
// buffered channel and recycles the per-call job descriptor through a
// sync.Pool, so a steady-state parallel call allocates nothing beyond the
// caller's own closure.
//
// Work distribution is unchanged: a job exposes its shards through an
// atomic cursor and any subset of workers (plus the submitting goroutine,
// which always participates) drains them. Shard boundaries remain a pure
// function of the problem, so results are bitwise identical no matter how
// many workers actually run.

// job is one parallel call in flight. Exactly one of bounds (irregular
// shards) or grain (regular shards over [0, n)) describes the shard
// structure.
type job struct {
	fn     func(lo, hi int)
	n      int
	grain  int
	bounds []int
	shards int
	next   atomic.Int64
	wg     sync.WaitGroup
}

// run drains shards until the cursor is exhausted.
func (j *job) run() {
	for {
		s := int(j.next.Add(1)) - 1
		if s >= j.shards {
			return
		}
		var lo, hi int
		if j.bounds != nil {
			lo, hi = j.bounds[s], j.bounds[s+1]
			if lo >= hi {
				continue
			}
		} else {
			lo = s * j.grain
			hi = lo + j.grain
			if hi > j.n {
				hi = j.n
			}
		}
		j.fn(lo, hi)
	}
}

var (
	jobPool = sync.Pool{New: func() any { return new(job) }}
	// jobs is the feed channel of the persistent workers. A job is posted
	// only after an idle worker has been reserved for it (see idle), so
	// every post is guaranteed a receiver; when no worker is idle —
	// including the nested-call case, where a worker's fn itself issues a
	// parallel call — the submitter runs the remaining shards itself.
	jobs = make(chan *job, 256)
	// idle counts the workers that are parked on (or about to park on) a
	// receive from jobs and have not been reserved by a submitter.
	idle atomic.Int64
	// spawned counts the persistent workers launched so far; workers are
	// started lazily, up to the largest concurrency any call has asked for.
	spawned atomic.Int64
)

// ensureWorkers lazily grows the persistent pool to at least w-1 workers
// (the submitting goroutine is the w-th).
func ensureWorkers(w int) {
	need := int64(w - 1)
	for {
		cur := spawned.Load()
		if cur >= need {
			return
		}
		if spawned.CompareAndSwap(cur, cur+1) {
			idle.Add(1)
			go func() {
				for j := range jobs {
					j.run()
					// Idle again before Done, so the submitter
					// returning from Wait can reserve this worker for
					// its very next call.
					idle.Add(1)
					j.wg.Done()
				}
			}()
		}
	}
}

// reserveIdle claims one idle worker, reporting false when none is idle.
func reserveIdle() bool {
	for {
		n := idle.Load()
		if n <= 0 {
			return false
		}
		if idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// dispatch runs j with up to w concurrent executors and recycles it.
func dispatch(j *job, w int) {
	ensureWorkers(w)
	for i := 0; i < w-1 && reserveIdle(); i++ {
		j.wg.Add(1)
		jobs <- j
	}
	j.run() // the submitter always participates
	j.wg.Wait()
	j.fn = nil
	j.bounds = nil
	jobPool.Put(j)
}

// defaultWorkers returns GOMAXPROCS, which is always at least 1.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers returns the current worker count.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the worker count and returns the previous value; n <= 0
// resets to the default (GOMAXPROCS). Tests use the
// returned value to restore the global:
//
//	defer parallel.SetWorkers(parallel.SetWorkers(8))
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWorkers()
	}
	return int(workers.Swap(int64(n)))
}

// NumShards returns the number of shards For(n, grain, ·) executes:
// ceil(n/grain), with grain clamped to at least 1. It depends only on n
// and grain — never on the worker count.
func NumShards(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// For executes fn over [0, n) in contiguous shards of size grain (the last
// shard may be shorter). Shard s covers [s*grain, min((s+1)*grain, n));
// fn(lo, hi) must touch only state owned by that range. Up to Workers()
// shards run concurrently; with one worker (or a single shard) everything
// runs inline on the calling goroutine, in shard order.
func For(n, grain int, fn func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	shards := NumShards(n, grain)
	if shards == 0 {
		return
	}
	w := Workers()
	if w > shards {
		w = shards
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	j := jobPool.Get().(*job)
	j.fn, j.n, j.grain, j.bounds, j.shards = fn, n, grain, nil, shards
	j.next.Store(0)
	dispatch(j, w)
}

// ForShards executes fn over the irregular contiguous shards described by
// bounds: shard s covers [bounds[s], bounds[s+1]). It is For for callers
// that derive their own shard boundaries from the data — for example the
// tensor segment kernels, which cut only on destination-segment boundaries
// so each shard owns a disjoint set of output rows. The same invariant
// applies: bounds must be a function of the problem only, never of the
// worker count; the worker count only bounds how many shards run
// concurrently. With one worker (or one shard) everything runs inline in
// shard order.
func ForShards(bounds []int, fn func(lo, hi int)) {
	shards := len(bounds) - 1
	if shards <= 0 {
		return
	}
	w := Workers()
	if w > shards {
		w = shards
	}
	if w <= 1 {
		for s := 0; s < shards; s++ {
			if bounds[s] < bounds[s+1] {
				fn(bounds[s], bounds[s+1])
			}
		}
		return
	}
	j := jobPool.Get().(*job)
	j.fn, j.n, j.grain, j.bounds, j.shards = fn, 0, 0, bounds, shards
	j.next.Store(0)
	dispatch(j, w)
}

// MapReduce maps each shard of [0, n) to a value and folds the per-shard
// values in ascending shard order, so the reduction tree — and with it any
// floating-point result — is identical for every worker count. The fold is
// left-to-right: reduce(...reduce(reduce(m0, m1), m2)..., mLast).
func MapReduce[T any](n, grain int, mapFn func(lo, hi int) T, reduce func(acc, v T) T) T {
	var zero T
	if grain < 1 {
		grain = 1
	}
	shards := NumShards(n, grain)
	if shards == 0 {
		return zero
	}
	parts := make([]T, shards)
	For(n, grain, func(lo, hi int) {
		parts[lo/grain] = mapFn(lo, hi)
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = reduce(acc, p)
	}
	return acc
}
