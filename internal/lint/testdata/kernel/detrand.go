package kernel

import (
	"math/rand" // want dettaint
	"time"
)

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want dettaint
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want dettaint
}

func stamp() int64 {
	//bettyvet:ok dettaint coarse wall-clock only labels the trace, it never feeds kernel output // want-sup+1 dettaint
	return time.Now().UnixNano()
}

// A sink stored, not called: every identifier use counts, not only calls.
var clock = time.Now // want dettaint
