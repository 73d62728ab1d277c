package store

import (
	"fmt"
	"sync"

	"betty/internal/device"
	"betty/internal/obs"
)

// Cache is the budget-pinned shard cache: it loads feature shards on
// demand, keeps them resident up to a byte budget, and evicts under an
// LRU-with-pin discipline — a pinned shard (one a gather is actively
// copying from) is never evicted; when every resident shard is pinned and
// the budget is exhausted, Pin blocks until another gather unpins.
//
// Accounting runs through a device.Device byte ledger (the same ledger
// type the memory.Planner budgets against) whose capacity is the budget:
// every resident shard byte is Alloc'd, every eviction Frees, so the
// ledger's Used can never exceed the budget by construction and its Peak
// is the high-water proof the out-of-core tests assert. The ledger rounds
// to device.AllocGranularity, which only makes the bound stricter. Order,
// charging and eviction are device.LRU's (Pin/Unpin are its Hold/Release);
// this type adds the lock, the wait when everything resident is pinned,
// and loading with the lock dropped.
//
// Deadlock-freedom: each gather worker pins at most one shard at a time
// (see Features.GatherInto), so some worker can always finish its copy and
// unpin — a waiting Pin is woken by the next Unpin. A single shard larger
// than the whole budget can never fit and fails fast instead of blocking.
type Cache struct {
	store  *Store
	ledger *device.Device
	reg    *obs.Registry

	mu   sync.Mutex
	cond *sync.Cond
	// lru holds every resident shard; a pinned shard is held — resident
	// and charged, but out of the eviction order.
	lru *device.LRU[int, *Shard]
	// spare is the payload of the most recently evicted shard, waiting for
	// the next load to read into, so a steady-state miss allocates no
	// payload. A Pin takes it under the lock right after its Reserve and
	// gives it back if its load fails or loses to a concurrent one. It is
	// at most one shard of host memory outside the ledger — the bytes a
	// fresh load would otherwise leave to the garbage collector.
	spare []float32
}

// NewCache builds a cache over st with the given byte budget. The registry
// may be nil; when set it receives the hit/miss/eviction counters and the
// resident/pinned gauges the CI ledger artifact exports.
func NewCache(st *Store, budget int64, reg *obs.Registry) (*Cache, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("store: cache budget %d must be positive", budget)
	}
	if min := st.MaxShardBytes(); budget < min {
		return nil, fmt.Errorf("store: cache budget %d cannot hold one %d-byte shard — "+
			"raise the budget or repack with smaller BETTY_STORE_SHARD_ROWS", budget, min)
	}
	c := &Cache{store: st, ledger: device.New(budget, device.CostModel{}), reg: reg}
	c.lru = device.NewLRU[int, *Shard](c.ledger, "store.shard")
	c.lru.OnEvict = func(_ int, sh *Shard) {
		reg.Add("store.evictions", 1)
		c.spare = sh.Data
	}
	c.cond = sync.NewCond(&c.mu)
	reg.Set("store.budget_bytes", budget)
	return c, nil
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.ledger.Capacity() }

// ResidentBytes returns the ledger's current residency.
func (c *Cache) ResidentBytes() int64 { return c.ledger.Used() }

// PeakBytes returns the ledger's high-water mark — the number the
// out-of-core tests compare against Budget.
func (c *Cache) PeakBytes() int64 { return c.ledger.Peak() }

// Pin returns shard id resident and pinned: the shard cannot be evicted
// until the matching Unpin. Pin blocks while the budget is exhausted by
// other pinned shards; it fails on I/O errors, corruption, or an id out of
// range. Every Pin must be paired with an Unpin (bettyvet's pooldisc
// enforces the pairing outside this package). A shard's rows must not be
// read after its Unpin: once it is evicted, the next load reuses its
// memory. Features.GatherInto copies the rows out before it unpins.
func (c *Cache) Pin(id int) (*Shard, error) {
	c.mu.Lock()
	var buf *device.Buffer
	var spare []float32
	for {
		if sh, ok := c.lru.Hold(id); ok {
			c.publishLocked()
			c.reg.Add("store.shard_hits", 1)
			c.mu.Unlock()
			return sh, nil
		}
		// Reserve the budget before the disk read, release the lock during
		// it: the reservation keeps concurrent Pins from overcommitting
		// while the I/O runs unlocked.
		var ok bool
		if buf, ok = c.lru.Reserve(c.shardBytes(id)); ok {
			spare, c.spare = c.spare, nil
			break
		}
		// Everything resident is pinned and the budget cannot take this
		// shard: wait for an Unpin to free eviction candidates.
		c.reg.Add("store.pin_waits", 1)
		c.cond.Wait()
	}
	c.mu.Unlock()

	sh, err := c.store.loadShard(id, spare)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if spare != nil {
			c.spare = spare
		}
		c.ledger.Free(buf)
		c.cond.Broadcast()
		c.reg.Add("store.load_errors", 1)
		return nil, err
	}
	if resident, ok := c.lru.Hold(id); ok {
		// A concurrent Pin loaded the same shard while we read: keep the
		// established entry, drop our duplicate load.
		c.spare = sh.Data
		c.ledger.Free(buf)
		c.cond.Broadcast()
		c.publishLocked()
		return resident, nil
	}
	c.lru.Insert(id, sh, buf)
	c.lru.Hold(id)
	c.reg.Add("store.shard_misses", 1)
	c.reg.Add("store.loaded_bytes", sh.Bytes())
	c.publishLocked()
	// A waiter wanting this same shard can now share the pin.
	c.cond.Broadcast()
	return sh, nil
}

// Unpin releases one pin on sh; an Unpin without a matching Pin panics.
// When the last pin drops, the shard stays resident and becomes evictable
// as the most recently used.
func (c *Cache) Unpin(sh *Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Release(sh.ID) {
		// Budget may now be reclaimable: wake waiting Pins.
		c.cond.Broadcast()
	}
	c.publishLocked()
}

// shardBytes returns the ledger charge for shard id without loading it.
func (c *Cache) shardBytes(id int) int64 {
	start, end := c.store.hdr.shardRowRange(id)
	return int64(end-start) * int64(c.store.hdr.Dim) * 4
}

// publishLocked exports the residency gauges. Called with the mutex held,
// so the gauge sequence is consistent with the ledger.
func (c *Cache) publishLocked() {
	if c.reg == nil {
		return
	}
	c.reg.Set("store.resident_bytes", c.ledger.Used())
	c.reg.Set("store.resident_peak_bytes", c.ledger.Peak())
	c.reg.Set("store.pinned_shards", int64(c.lru.Held()))
	c.reg.Set("store.resident_shards", int64(c.lru.Len()))
}
