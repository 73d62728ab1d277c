package embcache

import (
	"fmt"
	"sync"

	"betty/internal/device"
	"betty/internal/obs"
	"betty/internal/tensor"
)

// Config assembles a Cache.
type Config struct {
	// Mode is off/reuse; New returns nil for ModeOff so callers can
	// thread the result unconditionally (all methods are nil-safe).
	Mode Mode
	// BudgetBytes bounds resident row bytes. Required when Ledger is nil.
	BudgetBytes int64
	// MaxLag is ignored. It stays only because benchmark/ still sets it;
	// the cache holds no weight versions (see the package doc).
	MaxLag int
	// Ledger, when non-nil, is the device ledger cache bytes are charged
	// to (shared with other caches); otherwise the cache creates its own
	// ledger of capacity BudgetBytes.
	Ledger *device.Device
	// Obs receives counters and gauges (nil is fine).
	Obs *obs.Registry
}

// Cache is a concurrency-safe historical-embedding cache of layer-1 rows.
// Rows are copied in and out under the lock — no caller ever holds a
// reference into cache-owned memory, so eviction needs no pinning. Order,
// charging and eviction are device.LRU's; this type adds the lock and the
// self-budget on a shared ledger.
type Cache struct {
	budget int64
	ledger *device.Device
	reg    *obs.Registry

	mu           sync.Mutex
	lru          *device.LRU[int32, []float32]
	rowDim       int
	hits, misses int64
}

// New builds a cache, or nil when cfg.Mode is ModeOff.
func New(cfg Config) (*Cache, error) {
	if cfg.Mode == ModeOff {
		return nil, nil
	}
	ledger := cfg.Ledger
	if ledger == nil {
		if cfg.BudgetBytes <= 0 {
			return nil, fmt.Errorf("embcache: budget must be positive, got %d", cfg.BudgetBytes)
		}
		ledger = device.New(cfg.BudgetBytes, device.CostModel{})
	} else if cfg.BudgetBytes <= 0 {
		return nil, fmt.Errorf("embcache: shared-ledger cache needs a positive self-budget, got %d", cfg.BudgetBytes)
	}
	c := &Cache{
		budget: cfg.BudgetBytes,
		ledger: ledger,
		reg:    cfg.Obs,
		lru:    device.NewLRU[int32, []float32](ledger, "embcache.row"),
	}
	c.lru.OnEvict = func(int32, []float32) { c.reg.Add("embcache.evictions", 1) }
	c.reg.Set("embcache.budget_bytes", cfg.BudgetBytes)
	return c, nil
}

// Active reports whether forwards should consult the cache: New builds
// one only in reuse mode.
func (c *Cache) Active() bool { return c != nil }

// Dim returns the cached row width, or 0 before the first Store.
func (c *Cache) Dim() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowDim
}

// Stats returns the cumulative FetchInto hit and miss counts — the same
// numbers the embcache.hits and embcache.misses counters carry (zeros for
// a nil cache). Forward looks a layer-1 frontier up once the cache holds
// rows.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// ResidentBytes returns the ledger-charged bytes currently held.
func (c *Cache) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Bytes()
}

// Flush drops every entry and releases its ledger charge — called when a
// server shuts down, after the batch worker has fully drained.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Flush()
	c.publishResidency()
}

// FetchInto looks up nids and copies each hit's row into dst(i). Returns
// the per-node hit mask and the hit count.
func (c *Cache) FetchInto(nids []int32, dst func(i int) []float32) ([]bool, int) {
	if !c.Active() {
		return make([]bool, len(nids)), 0
	}
	hit := make([]bool, len(nids))
	c.mu.Lock()
	defer c.mu.Unlock()
	hits := 0
	for i, nid := range nids {
		if row, ok := c.lru.Get(nid); ok {
			copy(dst(i), row)
			hit[i] = true
			hits++
		}
	}
	c.hits += int64(hits)
	c.misses += int64(len(nids) - hits)
	c.reg.Add("embcache.hits", int64(hits))
	c.reg.Add("embcache.misses", int64(len(nids)-hits))
	return hit, hits
}

// Store inserts rows of t (one per nid), evicting LRU entries as needed
// to fit the budget. Rows that cannot fit even
// after evicting everything else are skipped, never partially stored.
func (c *Cache) Store(nids []int32, t *tensor.Tensor) error {
	if !c.Active() || len(nids) == 0 {
		return nil
	}
	if t.Rows() != len(nids) {
		return fmt.Errorf("embcache: %d rows for %d node ids", t.Rows(), len(nids))
	}
	dim := t.Cols()
	rowBytes := int64(dim) * 4
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rowDim == 0 {
		c.rowDim = dim
	} else if c.rowDim != dim {
		return fmt.Errorf("embcache: row dim changed %d -> %d", c.rowDim, dim)
	}
	budgetSkips := 0
	for i, nid := range nids {
		fresh := t.Row(i)
		if row, ok := c.lru.Get(nid); ok {
			copy(row, fresh)
			continue
		}
		buf, ok := c.reserveLocked(rowBytes)
		if !ok {
			budgetSkips++
			continue
		}
		c.lru.Insert(nid, append([]float32(nil), fresh...), buf)
	}
	if budgetSkips > 0 {
		c.reg.Add("embcache.budget_skips", int64(budgetSkips))
	}
	c.publishResidency()
	return nil
}

// reserveLocked charges rowBytes to the ledger, evicting this cache's own
// LRU tail until both the self-budget and the (possibly shared) ledger
// accept the charge. It reports false only when the row cannot fit at all.
func (c *Cache) reserveLocked(rowBytes int64) (*device.Buffer, bool) {
	for c.lru.Bytes()+rowBytes > c.budget {
		if !c.lru.EvictOldest() {
			return nil, false
		}
	}
	return c.lru.Reserve(rowBytes)
}

func (c *Cache) publishResidency() {
	c.reg.Set("embcache.resident_bytes", c.lru.Bytes())
	c.reg.Set("embcache.resident_rows", int64(c.lru.Len()))
	c.reg.Set("embcache.resident_peak_bytes", c.ledger.Peak())
}
