package device

import (
	"math/rand"
	"slices"
	"testing"
)

// put is the owners' insert idiom: reserve, then insert.
func put(c *LRU[int, int], k int, n int64) bool {
	buf, ok := c.Reserve(n)
	if ok {
		c.Insert(k, k*10, buf)
	}
	return ok
}

// evictionOrder walks the ring oldest-first.
func evictionOrder(c *LRU[int, int]) []int {
	var out []int
	for e := c.root.prev; e != &c.root; e = e.prev {
		out = append(out, e.key)
	}
	return out
}

func TestLRUEvictionOrderAndTouch(t *testing.T) {
	d := New(3*AllocGranularity, CostModel{})
	c := NewLRU[int, int](d, "t")
	var evicted []int
	c.OnEvict = func(k, v int) {
		if v != k*10 {
			t.Errorf("OnEvict(%d) got value %d", k, v)
		}
		evicted = append(evicted, k)
	}
	for k := 1; k <= 3; k++ {
		if !put(c, k, 1) {
			t.Fatalf("put %d refused with room left", k)
		}
	}
	if v, ok := c.Get(1); !ok || v != 10 { // 1 becomes most recent
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if _, ok := c.Get(9); ok {
		t.Fatal("hit on a key never inserted")
	}
	put(c, 4, 1) // evicts 2, the oldest untouched
	put(c, 5, 1) // evicts 3
	if !slices.Equal(evicted, []int{2, 3}) {
		t.Fatalf("evicted %v, want [2 3]", evicted)
	}
	if got := evictionOrder(c); !slices.Equal(got, []int{1, 4, 5}) {
		t.Fatalf("eviction order %v, want [1 4 5]", got)
	}
	if c.Len() != 3 || c.Bytes() != 3*AllocGranularity || d.Used() != c.Bytes() {
		t.Fatalf("len %d bytes %d ledger %d", c.Len(), c.Bytes(), d.Used())
	}
	// Remove is the owner's own drop: no OnEvict.
	if !c.Remove(4) || c.Remove(4) || len(evicted) != 2 {
		t.Fatalf("Remove misbehaved (evicted %v)", evicted)
	}
	// One allocation larger than everything resident evicts it all.
	if !put(c, 6, 3*AllocGranularity) || c.Len() != 1 {
		t.Fatalf("full-budget put left %d entries", c.Len())
	}
	if put(c, 7, 4*AllocGranularity) {
		t.Fatal("an allocation above capacity was accepted")
	}
	if c.Len() != 0 || d.Used() != 0 {
		t.Fatalf("failed oversize Reserve left len %d, ledger %d", c.Len(), d.Used())
	}
}

func TestLRUHeldSurvivesPressure(t *testing.T) {
	d := New(2*AllocGranularity, CostModel{})
	c := NewLRU[int, int](d, "t")
	put(c, 1, 1)
	put(c, 2, 1)
	if v, ok := c.Hold(1); !ok || v != 10 {
		t.Fatalf("Hold(1) = %d, %v", v, ok)
	}
	c.Hold(1) // holds nest
	if _, ok := c.Hold(9); ok {
		t.Fatal("Hold of an absent key succeeded")
	}
	for k := 3; k < 20; k++ { // churn the one evictable slot
		if !put(c, k, 1) {
			t.Fatalf("put %d refused with an evictable entry resident", k)
		}
	}
	if _, ok := c.Get(1); !ok || c.Held() != 1 || c.Len() != 2 {
		t.Fatalf("held entry lost: held %d len %d", c.Held(), c.Len())
	}
	c.Hold(19)
	if _, ok := c.Reserve(1); ok {
		t.Fatal("Reserve succeeded with everything resident held")
	}
	if c.EvictOldest() {
		t.Fatal("EvictOldest dropped a held entry")
	}
	if c.Len() != 2 || d.Used() != 2*AllocGranularity {
		t.Fatalf("failed Reserve disturbed residency: len %d ledger %d", c.Len(), d.Used())
	}
	if c.Release(1) {
		t.Fatal("Release reported evictable with one hold outstanding")
	}
	if !c.Release(1) || c.Held() != 1 {
		t.Fatalf("last Release did not return the entry to the order (held %d)", c.Held())
	}
	if !put(c, 20, 1) { // evicts 1, now the only unheld entry
		t.Fatal("put refused after Release")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("released entry was not evictable")
	}
	if d.Peak() > d.Capacity() {
		t.Fatalf("ledger peak %d above capacity %d", d.Peak(), d.Capacity())
	}
}

// Recycle hands the oldest unheld entry to a new key without touching the
// ledger: same Buffer, same charge, same value storage.
func TestLRURecycle(t *testing.T) {
	d := New(3*AllocGranularity, CostModel{})
	c := NewLRU[int, int](d, "t")
	var evicted [][2]int
	c.OnEvict = func(k, v int) { evicted = append(evicted, [2]int{k, v}) }
	if _, ok := c.Recycle(1); ok {
		t.Fatal("Recycle succeeded on an empty cache")
	}
	for k := 1; k <= 3; k++ {
		put(c, k, 1)
	}
	c.Hold(1) // the oldest entry is held: 2 is the one to go
	used, peak, allocs, size, n := d.Used(), d.Peak(), d.nextID, c.Bytes(), c.Len()
	p, ok := c.Recycle(7)
	if !ok || *p != 20 {
		t.Fatalf("Recycle(7) = %v, %v; want the storage of key 2 (value 20)", p, ok)
	}
	*p = 70
	if !slices.Equal(evicted, [][2]int{{2, 20}}) {
		t.Fatalf("OnEvict saw %v, want key 2 with value 20", evicted)
	}
	if v, ok := c.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d, %v after writing through the recycled pointer", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("recycled key still resident")
	}
	if got := evictionOrder(c); !slices.Equal(got, []int{3, 7}) {
		t.Fatalf("eviction order %v, want [3 7]", got)
	}
	if d.Used() != used || d.Peak() != peak || d.nextID != allocs || c.Bytes() != size || c.Len() != n {
		t.Fatalf("Recycle moved the ledger: used %d→%d peak %d→%d allocs %d→%d bytes %d→%d len %d→%d",
			used, d.Used(), peak, d.Peak(), allocs, d.nextID, size, c.Bytes(), n, c.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Recycle to a resident key did not panic")
			}
		}()
		c.Recycle(3)
	}()
	c.Hold(3)
	c.Hold(7)
	if _, ok := c.Recycle(8); ok || c.Len() != 3 || c.Held() != 3 {
		t.Fatalf("Recycle took a held entry (len %d held %d)", c.Len(), c.Held())
	}
	c.Flush()
	if d.Used() != 0 {
		t.Fatalf("ledger holds %d bytes after Flush", d.Used())
	}
}

func TestLRUReleaseUnheldPanics(t *testing.T) {
	c := NewLRU[int, int](New(MiB, CostModel{}), "t")
	put(c, 1, 1)
	for _, k := range []int{1, 2} { // resident but unheld; absent
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Release(%d) of an unheld key did not panic", k)
				}
			}()
			c.Release(k)
		}()
	}
}

// lruModel is the naive reference: a slice in eviction order plus maps.
type lruModel struct {
	cap, used int64
	order     []int         // unheld keys, oldest first
	holds     map[int]int   // held keys → nesting depth
	size      map[int]int64 // resident keys → charged bytes
	evictions int
}

func (m *lruModel) drop(k int) {
	if i := slices.Index(m.order, k); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	delete(m.holds, k)
	m.used -= m.size[k]
	delete(m.size, k)
}

func (m *lruModel) touch(k int) {
	if i := slices.Index(m.order, k); i >= 0 {
		m.order = append(slices.Delete(m.order, i, i+1), k)
	}
}

func (m *lruModel) put(k int, n int64) bool {
	n = RoundAlloc(n)
	for m.used+n > m.cap {
		if len(m.order) == 0 {
			return false
		}
		m.drop(m.order[0])
		m.evictions++
	}
	m.used += n
	m.size[k] = n
	m.order = append(m.order, k)
	return true
}

// A seeded random walk over every operation, checked step by step against
// the model: same hits, same eviction order, same ledger bytes — and the
// ledger back at zero after Flush wherever the walk happens to stand.
func TestLRURandomizedAgainstModel(t *testing.T) {
	const keys, steps = 24, 20000
	d := New(16*AllocGranularity, CostModel{})
	c := NewLRU[int, int](d, "t")
	evictions := 0
	c.OnEvict = func(int, int) { evictions++ }
	m := &lruModel{cap: d.Capacity(), holds: map[int]int{}, size: map[int]int64{}}
	r := rand.New(rand.NewSource(20230325))
	for step := 0; step < steps; step++ {
		k := r.Intn(keys)
		_, resident := m.size[k]
		switch op := r.Intn(100); {
		case op < 30:
			if _, ok := c.Get(k); ok != resident {
				t.Fatalf("step %d: Get(%d) hit=%v, model %v", step, k, ok, resident)
			}
			m.touch(k)
		case op < 60:
			if resident {
				continue
			}
			n := int64(1 + r.Intn(3*int(AllocGranularity)))
			if got, want := put(c, k, n), m.put(k, n); got != want {
				t.Fatalf("step %d: put(%d, %d) = %v, model %v", step, k, n, got, want)
			}
		case op < 72:
			if _, ok := c.Hold(k); ok != resident {
				t.Fatalf("step %d: Hold(%d) = %v, model %v", step, k, ok, resident)
			}
			if resident {
				if i := slices.Index(m.order, k); i >= 0 {
					m.order = slices.Delete(m.order, i, i+1)
				}
				m.holds[k]++
			}
		case op < 86:
			if m.holds[k] == 0 {
				continue
			}
			m.holds[k]--
			last := m.holds[k] == 0
			if last {
				delete(m.holds, k)
				m.order = append(m.order, k)
			}
			if got := c.Release(k); got != last {
				t.Fatalf("step %d: Release(%d) = %v, model %v", step, k, got, last)
			}
		case op < 91:
			if got := c.Remove(k); got != resident {
				t.Fatalf("step %d: Remove(%d) = %v, model %v", step, k, got, resident)
			}
			if resident {
				m.drop(k)
			}
		case op < 96:
			if resident {
				continue
			}
			want := len(m.order) > 0
			if want {
				old := m.order[0]
				m.order = append(m.order[1:], k)
				m.size[k] = m.size[old]
				delete(m.size, old)
				m.evictions++
			}
			if _, got := c.Recycle(k); got != want {
				t.Fatalf("step %d: Recycle(%d) = %v, model %v", step, k, got, want)
			}
		case op < 99:
			want := len(m.order) > 0
			if want {
				m.drop(m.order[0])
				m.evictions++
			}
			if got := c.EvictOldest(); got != want {
				t.Fatalf("step %d: EvictOldest = %v, model %v", step, got, want)
			}
		default:
			c.Flush()
			if d.Used() != 0 {
				t.Fatalf("step %d: ledger holds %d bytes after Flush", step, d.Used())
			}
			m.used, m.order = 0, nil
			clear(m.holds)
			clear(m.size)
		}
		if got := evictionOrder(c); !slices.Equal(got, m.order) {
			t.Fatalf("step %d: eviction order %v, model %v", step, got, m.order)
		}
		if c.Len() != len(m.size) || c.Held() != len(m.holds) || c.Bytes() != m.used ||
			d.Used() != m.used || evictions != m.evictions {
			t.Fatalf("step %d: len %d/%d held %d/%d bytes %d ledger %d/%d evictions %d/%d", step,
				c.Len(), len(m.size), c.Held(), len(m.holds), c.Bytes(), d.Used(), m.used, evictions, m.evictions)
		}
	}
	if d.Peak() > d.Capacity() {
		t.Fatalf("ledger peak %d above capacity %d", d.Peak(), d.Capacity())
	}
	c.Flush()
	if c.Len() != 0 || c.Held() != 0 || c.Bytes() != 0 || d.Used() != 0 {
		t.Fatalf("after final Flush: len %d held %d bytes %d ledger %d", c.Len(), c.Held(), c.Bytes(), d.Used())
	}
}
