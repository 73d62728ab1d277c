package tensor

import "testing"

// TestPoolAcquireZeroed proves a recycled slice comes back zeroed even
// after its previous owner dirtied it — the property that makes pooling
// numerically invisible.
func TestPoolAcquireZeroed(t *testing.T) {
	defer SetPooling(SetPooling(true))
	DrainPool()
	s := acquire(100)
	for i := range s {
		s[i] = float32(i + 1)
	}
	release(s)
	got := acquire(100)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
}

// TestPoolReusesBacking proves acquire actually recycles: after a release,
// an acquire of the same class returns the identical backing array.
func TestPoolReusesBacking(t *testing.T) {
	defer SetPooling(SetPooling(true))
	DrainPool()
	s := acquire(1000)
	p := &s[0]
	release(s)
	got := acquire(900) // same power-of-two class (1024)
	if &got[0] != p {
		t.Fatal("acquire did not recycle the released backing array")
	}
	acq, hits, rels := PoolStats()
	if acq != 2 || hits != 1 || rels != 1 {
		t.Fatalf("stats = %d acquires, %d hits, %d releases; want 2, 1, 1", acq, hits, rels)
	}
}

// TestPoolDisabled proves the SetPooling(false) path allocates fresh slices and
// retains nothing.
func TestPoolDisabled(t *testing.T) {
	defer SetPooling(SetPooling(false))
	s := acquire(64)
	release(s)
	if acq, hits, rels := PoolStats(); acq != 0 || hits != 0 || rels != 0 {
		t.Fatalf("disabled pool recorded activity: %d/%d/%d", acq, hits, rels)
	}
}

// TestSizeClass pins the class mapping at its boundaries.
func TestSizeClass(t *testing.T) {
	for _, tc := range []struct {
		n, class int
		ok       bool
	}{
		{1, poolMinBits, true},
		{64, poolMinBits, true},
		{65, 7, true},
		{1 << 20, 20, true},
		{1<<20 + 1, 21, true},
		{1 << poolMaxBits, poolMaxBits, true},
		{1<<poolMaxBits + 1, poolMaxBits + 1, false},
	} {
		c, ok := sizeClass(tc.n)
		if c != tc.class || ok != tc.ok {
			t.Fatalf("sizeClass(%d) = %d,%v; want %d,%v", tc.n, c, ok, tc.class, tc.ok)
		}
	}
}

// TestTapeReleaseRecycles proves the tape/pool round trip: Release returns
// every tape buffer, so an identical second pass is served entirely from
// the pool, reusing the rewound header arenas.
func TestTapeReleaseRecycles(t *testing.T) {
	defer SetPooling(SetPooling(true))
	DrainPool()
	tp := NewTape()
	pass := func() *Var {
		a := Param(New(32, 16))
		b := Param(New(32, 16))
		out := tp.Sum(tp.Mul(tp.Add(a, b), Leaf(New(32, 16))))
		tp.Backward(out)
		return out
	}
	pass()
	tp.Release()
	_, _, rels := PoolStats()
	if rels == 0 {
		t.Fatal("Release returned nothing to the pool")
	}
	DrainPool()
	pass() // fill the pool with this graph's buffers
	tp.Release()
	preAcq, preHits, _ := PoolStats()
	pass()
	acq, hits, _ := PoolStats()
	if gotAcq, gotHits := acq-preAcq, hits-preHits; gotAcq != gotHits {
		t.Fatalf("steady-state pass missed the pool: %d acquires, %d hits", gotAcq, gotHits)
	}
	if tp.NumOps() == 0 {
		t.Fatal("reused tape recorded no ops")
	}
	tp.Release()
	if tp.NumOps() != 0 || tp.ValueBytes() != 0 {
		t.Fatal("Release did not rewind the tape")
	}
	tp.Release() // idempotent
}

// TestReleaseKeepsLeafGrads proves parameter gradients survive Release:
// only interior storage is tape-owned.
func TestReleaseKeepsLeafGrads(t *testing.T) {
	defer SetPooling(SetPooling(true))
	tp := NewTape()
	a := Param(FromSlice(1, 2, []float32{1, 2}))
	loss := tp.Sum(tp.Mul(a, a))
	tp.Backward(loss)
	want := append([]float32(nil), a.Grad.Data...)
	tp.Release()
	for i, v := range a.Grad.Data {
		if v != want[i] {
			t.Fatalf("parameter grad changed by Release at %d: %v != %v", i, v, want[i])
		}
	}
	if want[0] != 2 || want[1] != 4 {
		t.Fatalf("d(sum a^2)/da = %v, want [2 4]", want)
	}
}
