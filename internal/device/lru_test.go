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
	if v, ok := c.Hold(1); !ok || v != 10 {
		t.Fatalf("Hold(1) = %d, %v", v, ok)
	}
	c.Release(1) // 1 becomes most recent
	put(c, 4, 1) // evicts 2, the oldest untouched
	put(c, 5, 1) // evicts 3
	if !slices.Equal(evicted, []int{2, 3}) {
		t.Fatalf("evicted %v, want [2 3]", evicted)
	}
	if got := evictionOrder(c); !slices.Equal(got, []int{1, 4, 5}) {
		t.Fatalf("eviction order %v, want [1 4 5]", got)
	}
	if c.Len() != 3 || d.Used() != 3*AllocGranularity {
		t.Fatalf("len %d ledger %d", c.Len(), d.Used())
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
	if _, ok := c.entries[1]; !ok || c.Held() != 1 || c.Len() != 2 {
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
	if _, ok := c.entries[1]; ok {
		t.Fatal("released entry was not evictable")
	}
	if d.Peak() > d.Capacity() {
		t.Fatalf("ledger peak %d above capacity %d", d.Peak(), d.Capacity())
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
// ledger back at zero once the holds are released and everything evicted.
// A touch is a Hold and its Release, which re-enters the entry as the most
// recently used.
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
			if _, ok := c.Hold(k); ok != resident {
				t.Fatalf("step %d: touching Hold(%d) hit=%v, model %v", step, k, ok, resident)
			} else if ok {
				c.Release(k)
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
		default:
			want := len(m.order) > 0
			if want {
				m.drop(m.order[0])
				m.evictions++
			}
			if got := c.EvictOldest(); got != want {
				t.Fatalf("step %d: EvictOldest = %v, model %v", step, got, want)
			}
		}
		if got := evictionOrder(c); !slices.Equal(got, m.order) {
			t.Fatalf("step %d: eviction order %v, model %v", step, got, m.order)
		}
		if c.Len() != len(m.size) || c.Held() != len(m.holds) ||
			d.Used() != m.used || evictions != m.evictions {
			t.Fatalf("step %d: len %d/%d held %d/%d ledger %d/%d evictions %d/%d", step,
				c.Len(), len(m.size), c.Held(), len(m.holds), d.Used(), m.used, evictions, m.evictions)
		}
	}
	if d.Peak() > d.Capacity() {
		t.Fatalf("ledger peak %d above capacity %d", d.Peak(), d.Capacity())
	}
	for k, n := range m.holds {
		for ; n > 0; n-- {
			c.Release(k)
		}
	}
	for c.EvictOldest() {
	}
	if c.Len() != 0 || c.Held() != 0 || d.Used() != 0 {
		t.Fatalf("after releasing and evicting all: len %d held %d ledger %d", c.Len(), c.Held(), d.Used())
	}
}
