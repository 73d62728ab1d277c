package device

import "fmt"

// LRU is a least-recently-used cache whose resident bytes are charged to a
// Device ledger: every entry owns one Buffer, eviction frees it, so the
// ledger's Used is the cache's residency and its capacity the budget — and
// several caches built over one ledger share that budget. It is the one
// eviction mechanism under the serving feature cache, the out-of-core
// shard cache and the embedding cache; each owner keeps only its own
// policy (row caps, locking, versions) on top.
//
// An entry can be held: it stays resident and charged but leaves the
// eviction order until every Hold is matched by a Release — the shard
// cache's pin. LRU is not safe for concurrent use; owners that share one
// lock it themselves.
type LRU[K comparable, V any] struct {
	// OnEvict, when set, observes every entry dropped to make room
	// (Reserve, EvictOldest, Recycle) — not Remove or Flush, which the
	// owner asked for by name.
	OnEvict func(K, V)

	ledger  *Device
	label   string
	entries map[K]*lruEntry[K, V]
	// root is the sentinel of the eviction ring over unheld entries:
	// root.next is the most recently used, root.prev the next to go. The
	// ring is intrusive, so an entry costs one allocation.
	root  lruEntry[K, V]
	held  int
	bytes int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	buf   *Buffer
	holds int
	// prev/next link the entry into the eviction ring; nil while held.
	prev, next *lruEntry[K, V]
}

// NewLRU returns an empty cache charging ledger; label tags its buffers.
func NewLRU[K comparable, V any](ledger *Device, label string) *LRU[K, V] {
	c := &LRU[K, V]{ledger: ledger, label: label, entries: make(map[K]*lruEntry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if e.holds == 0 {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Reserve charges n bytes to the ledger, evicting least recently used
// entries until the allocation fits. It reports false when nothing
// evictable is left and the ledger still refuses — everything resident is
// held, or the bytes belong to another cache on a shared ledger. The
// buffer is the caller's until it is handed to Insert (or freed).
func (c *LRU[K, V]) Reserve(n int64) (*Buffer, bool) {
	for {
		if buf, err := c.ledger.Alloc(n, c.label); err == nil {
			return buf, true
		}
		if !c.EvictOldest() {
			return nil, false
		}
	}
}

// Insert caches v under k as the most recently used entry, taking
// ownership of buf (a Reserve result). k must not be resident.
func (c *LRU[K, V]) Insert(k K, v V, buf *Buffer) {
	if _, ok := c.entries[k]; ok {
		panic(fmt.Sprintf("device: LRU.Insert of resident key %v", k))
	}
	e := &lruEntry[K, V]{key: k, val: v, buf: buf}
	c.entries[k] = e
	c.pushFront(e)
	c.bytes += buf.Bytes()
}

// Recycle rekeys the least recently used unheld entry to k, which must not
// be resident, and makes it the most recently used. The entry keeps its
// Buffer — the ledger is not touched, residency and peak stand — and its
// value, which the owner overwrites through the returned pointer (valid
// until the entry is dropped) after OnEvict has seen the old key and value.
// It reports false when nothing resident is unheld.
func (c *LRU[K, V]) Recycle(k K) (*V, bool) {
	if _, ok := c.entries[k]; ok {
		panic(fmt.Sprintf("device: LRU.Recycle to resident key %v", k))
	}
	e := c.root.prev
	if e == &c.root {
		return nil, false
	}
	if c.OnEvict != nil {
		c.OnEvict(e.key, e.val)
	}
	delete(c.entries, e.key)
	e.key = k
	c.entries[k] = e
	c.unlink(e)
	c.pushFront(e)
	return &e.val, true
}

// Hold returns the value cached under k and takes it out of the eviction
// order until the matching Release; holds nest.
func (c *LRU[K, V]) Hold(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if e.holds == 0 {
		c.unlink(e)
		c.held++
	}
	e.holds++
	return e.val, true
}

// Release drops one hold on k. When the last one drops, the entry
// re-enters the eviction order as most recently used and Release reports
// true. Releasing a key that is not held is a pairing bug and panics.
func (c *LRU[K, V]) Release(k K) bool {
	e, ok := c.entries[k]
	if !ok || e.holds == 0 {
		panic(fmt.Sprintf("device: LRU.Release of key %v which is not held", k))
	}
	e.holds--
	if e.holds > 0 {
		return false
	}
	c.held--
	c.pushFront(e)
	return true
}

// Remove drops k, held or not, and frees its charge; it reports whether k
// was resident.
func (c *LRU[K, V]) Remove(k K) bool {
	e, ok := c.entries[k]
	if ok {
		c.drop(e)
	}
	return ok
}

// EvictOldest drops the least recently used unheld entry; false when
// there is none.
func (c *LRU[K, V]) EvictOldest() bool {
	e := c.root.prev
	if e == &c.root {
		return false
	}
	c.drop(e)
	if c.OnEvict != nil {
		c.OnEvict(e.key, e.val)
	}
	return true
}

// Flush drops every entry, held ones included, returning all of the
// cache's bytes to the ledger.
func (c *LRU[K, V]) Flush() {
	for _, e := range c.entries {
		c.ledger.Free(e.buf)
	}
	clear(c.entries)
	c.root.prev, c.root.next = &c.root, &c.root
	c.held, c.bytes = 0, 0
}

// Len returns the resident entry count, held entries included.
func (c *LRU[K, V]) Len() int { return len(c.entries) }

// Held returns how many resident entries are currently held.
func (c *LRU[K, V]) Held() int { return c.held }

// Bytes returns the ledger-charged (rounded) bytes of all resident entries.
func (c *LRU[K, V]) Bytes() int64 { return c.bytes }

func (c *LRU[K, V]) drop(e *lruEntry[K, V]) {
	if e.holds == 0 {
		c.unlink(e)
	} else {
		c.held--
	}
	delete(c.entries, e.key)
	c.ledger.Free(e.buf)
	c.bytes -= e.buf.Bytes()
}

func (c *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
