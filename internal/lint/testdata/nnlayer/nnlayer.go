// Package nn is the dettaint golden for internal/nn, which dettaint scans
// by name: its layers run inside every kernel call of a training step,
// though no kernel package imports it. A layer constructor that falls
// back to a clock-seeded generator when handed no RNG makes a model's
// initial weights differ run to run; no test builds a layer without an
// RNG, so only dettaint catches it.
package nn

import "time"

type RNG struct{ state uint64 }

func newRNG(seed uint64) *RNG { return &RNG{state: seed} }

type Linear struct{ W []float32 }

func NewLinear(in, out int, r *RNG) *Linear {
	if r == nil {
		r = newRNG(uint64(time.Now().UnixNano())) // want dettaint
	}
	w := make([]float32, in*out)
	for i := range w {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		w[i] = float32(r.state>>40) / (1 << 24)
	}
	return &Linear{W: w}
}
