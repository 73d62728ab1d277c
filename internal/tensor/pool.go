package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The tape buffer pool recycles tensor backing slices across forward/
// backward passes. Every training step allocates the same shapes — the
// activations and gradients of the fixed model applied to similarly sized
// micro-batches — so the K micro-batches of a batch (and every batch after
// the first) can run out of one arena instead of hammering the garbage
// collector with fresh allocations.
//
// The pool is a set of power-of-two size classes, each a LIFO stack of
// slices, guarded by one mutex (acquire/release are rare relative to the
// kernel work done on each buffer). Acquired slices are zeroed, so a
// pooled tensor is indistinguishable from a freshly made one and pooling
// cannot change any numerical result: training with the pool on and off is
// bitwise-identical by construction. The one exception, take(n, false),
// serves outputs whose op writes every element before anything reads it,
// so what the slice held before is never seen.
//
// Pooling is on; SetPooling(false) disables it, turning acquire/release
// into plain make/no-op — the reference arm of the pooled≡unpooled tests.

const (
	// poolMinBits..poolMaxBits bound the size classes: slices shorter than
	// 2^poolMinBits are cheaper to allocate than to pool, and slices above
	// 2^poolMaxBits (256 Mi floats = 1 GiB) are returned to the GC.
	poolMinBits = 6
	poolMaxBits = 28
	// poolByteCap bounds the bytes retained across all classes; releases
	// beyond it are dropped so a one-off giant batch cannot pin memory.
	poolByteCap = 1 << 31
)

var (
	poolEnabled atomic.Bool
	poolMu      sync.Mutex
	poolClasses [poolMaxBits + 1][][]float32
	poolBytes   int64 // retained bytes, guarded by poolMu

	poolAcquires atomic.Int64
	poolHits     atomic.Int64
	poolReleases atomic.Int64
)

func init() { poolEnabled.Store(true) }

// SetPooling switches the tape buffer pool on or off and returns the
// previous setting. Disabling also drops every retained buffer, so
// benchmarks toggling the pool start from a cold arena either way:
//
//	defer tensor.SetPooling(tensor.SetPooling(false))
func SetPooling(on bool) bool {
	prev := poolEnabled.Swap(on)
	if !on {
		DrainPool()
	}
	return prev
}

// PoolStats returns the cumulative acquire, acquire-hit, and release
// counts. The hit ratio is the fraction of tape tensors served without a
// fresh allocation.
func PoolStats() (acquires, hits, releases int64) {
	return poolAcquires.Load(), poolHits.Load(), poolReleases.Load()
}

// PoolBytes returns the bytes the pool currently retains for reuse.
func PoolBytes() int64 {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolBytes
}

// DrainPool drops every retained buffer and resets the statistics.
func DrainPool() {
	poolMu.Lock()
	for c := range poolClasses {
		poolClasses[c] = nil
	}
	poolBytes = 0
	poolMu.Unlock()
	poolAcquires.Store(0)
	poolHits.Store(0)
	poolReleases.Store(0)
}

// sizeClass returns the class whose slices can hold n floats: the smallest
// c with 1<<c >= n, clamped into [poolMinBits, poolMaxBits]; ok is false
// when n is too large to pool.
func sizeClass(n int) (c int, ok bool) {
	c = bits.Len(uint(n - 1))
	if c < poolMinBits {
		c = poolMinBits
	}
	return c, c <= poolMaxBits
}

// acquire returns a zeroed slice of length n, recycled from the pool when
// possible. The zeroing makes pooled and fresh slices indistinguishable.
func acquire(n int) []float32 { return take(n, true) }

// take returns a slice of length n, recycled from the pool when possible.
// A fresh slice is zeroed by the heap; a recycled one is cleared only with
// zero. Without it the slice holds whatever its last user left, which is
// for an output its op writes in full before anything reads it.
func take(n int, zero bool) []float32 {
	if n == 0 {
		return nil
	}
	if !poolEnabled.Load() {
		return make([]float32, n)
	}
	poolAcquires.Add(1)
	c, ok := sizeClass(n)
	if !ok {
		return make([]float32, n)
	}
	poolMu.Lock()
	stack := poolClasses[c]
	if len(stack) == 0 {
		poolMu.Unlock()
		return make([]float32, n, 1<<c)
	}
	s := stack[len(stack)-1]
	poolClasses[c] = stack[:len(stack)-1]
	poolBytes -= int64(cap(s)) * 4
	poolMu.Unlock()
	poolHits.Add(1)
	s = s[:n]
	if zero {
		clear(s)
	}
	return s
}

// AcquireScratch returns a zeroed length-n float32 scratch slice drawn from
// the tape buffer pool (or the heap when pooling is off). It is the
// tape-free entry point for transient kernel buffers — the serve path stages
// each micro-batch's gathered features in one.
// Every AcquireScratch must be paired with a ReleaseScratch (bettyvet's
// pooldisc analyzer enforces the pairing), and the slice must not be used
// after release.
func AcquireScratch(n int) []float32 { return acquire(n) }

// ReleaseScratch returns a scratch slice obtained from AcquireScratch to
// the pool. Passing nil is a no-op.
func ReleaseScratch(s []float32) { release(s) }

// release returns a slice to the pool. Slices are binned by the class
// their capacity fills (floor log2), so any slice stored in class c has
// cap >= 1<<c and satisfies every acquire routed to that class.
func release(s []float32) {
	if cap(s) == 0 || !poolEnabled.Load() {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor log2
	if c < poolMinBits || c > poolMaxBits {
		return
	}
	poolReleases.Add(1)
	poolMu.Lock()
	if poolBytes+int64(cap(s))*4 <= poolByteCap {
		poolClasses[c] = append(poolClasses[c], s)
		poolBytes += int64(cap(s)) * 4
	}
	poolMu.Unlock()
}
