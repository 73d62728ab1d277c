package embcache

import (
	"fmt"
	"math"
	"sync"

	"betty/internal/device"
	"betty/internal/obs"
	"betty/internal/tensor"
)

// Config assembles a Cache.
type Config struct {
	// Mode is off/exact/reuse; New returns nil for ModeOff so callers can
	// thread the result unconditionally (all methods are nil-safe).
	Mode Mode
	// BudgetBytes bounds resident row bytes. Required when Ledger is nil.
	BudgetBytes int64
	// MaxLag is the maximum weight-version lag a reuse hit may carry.
	MaxLag int
	// Ledger, when non-nil, is the device ledger cache bytes are charged
	// to (shared with other caches); otherwise the cache creates its own
	// ledger of capacity BudgetBytes.
	Ledger *device.Device
	// Obs receives counters and gauges (nil is fine).
	Obs *obs.Registry
}

// entry is one cached layer-1 row. version records the weight version the
// row was computed under; staleness is version lag, checked lazily at
// lookup so invalidation is O(1).
type entry struct {
	version uint64
	row     []float32
}

// Cache is a concurrency-safe versioned historical-embedding cache.
// Rows are copied in and out under the lock — no caller ever holds a
// reference into cache-owned memory, so eviction needs no pinning. Order,
// charging and eviction are device.LRU's; this type adds the lock, the
// versions and lag check, the self-budget on a shared ledger, and verify.
type Cache struct {
	mode   Mode
	maxLag uint64
	budget int64
	ledger *device.Device
	reg    *obs.Registry

	mu             sync.Mutex
	version        uint64
	lru            *device.LRU[int32, *entry]
	rowDim         int
	maxObservedLag uint64
	hits, misses   int64
}

// New builds a cache, or nil when cfg.Mode is ModeOff.
func New(cfg Config) (*Cache, error) {
	if cfg.Mode == ModeOff {
		return nil, nil
	}
	if cfg.MaxLag < 0 {
		return nil, fmt.Errorf("embcache: negative max lag %d", cfg.MaxLag)
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
		mode:   cfg.Mode,
		maxLag: uint64(cfg.MaxLag),
		budget: cfg.BudgetBytes,
		ledger: ledger,
		reg:    cfg.Obs,
		lru:    device.NewLRU[int32, *entry](ledger, "embcache.row"),
	}
	c.lru.OnEvict = func(int32, *entry) { c.reg.Add("embcache.evictions", 1) }
	c.reg.Set("embcache.budget_bytes", cfg.BudgetBytes)
	c.reg.Set("embcache.version", 0)
	return c, nil
}

// Active reports whether forwards should consult the cache.
func (c *Cache) Active() bool { return c != nil && c.mode != ModeOff }

// Mode returns the cache mode (ModeOff for a nil cache).
func (c *Cache) Mode() Mode {
	if c == nil {
		return ModeOff
	}
	return c.mode
}

// Version returns the current weight version.
func (c *Cache) Version() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Dim returns the cached row width, or 0 before the first Store.
func (c *Cache) Dim() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowDim
}

// MaxObservedLag returns the largest version lag any reuse hit has
// carried — the quantity the staleness-bound test pins against MaxLag.
func (c *Cache) MaxObservedLag() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxObservedLag
}

// Stats returns the cumulative FetchInto hit and miss counts — the same
// numbers the embcache.hits and embcache.misses counters carry (zeros for
// a nil cache). Forward looks a layer-1 frontier up once the cache holds
// rows; in exact mode every lookup reports a miss by construction —
// compute is never skipped.
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

// BumpVersion advances the weight version by one — called after every
// optimizer step. Entries are not touched: staleness is evaluated lazily
// at lookup against the new version.
func (c *Cache) BumpVersion() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.version++
	v := c.version
	c.mu.Unlock()
	c.reg.Set("embcache.version", int64(v))
}

// Invalidate advances the version past every entry's reuse window —
// called on checkpoint load, when the weights change discontinuously.
// Entries drop lazily on their next lookup; no eager sweep.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.version += c.maxLag + 1
	v := c.version
	c.mu.Unlock()
	c.reg.Add("embcache.invalidations", 1)
	c.reg.Set("embcache.version", int64(v))
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

// FetchInto looks up nids and copies each hit's row into dst(i). Only
// reuse mode returns hits; exact mode always reports misses so the
// caller computes in full (verification happens in VerifyAndStore).
// Returns the per-node hit mask and the hit count.
func (c *Cache) FetchInto(nids []int32, dst func(i int) []float32) ([]bool, int) {
	if !c.Active() {
		return make([]bool, len(nids)), 0
	}
	hit := make([]bool, len(nids))
	if c.mode != ModeReuse {
		c.mu.Lock()
		c.misses += int64(len(nids))
		c.mu.Unlock()
		c.reg.Add("embcache.misses", int64(len(nids)))
		return hit, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hits, staleDrops := 0, 0
	for i, nid := range nids {
		e, ok := c.lru.Get(nid)
		if !ok {
			continue
		}
		lag := c.version - e.version
		if lag > c.maxLag {
			c.lru.Remove(nid)
			staleDrops++
			continue
		}
		copy(dst(i), e.row)
		if lag > c.maxObservedLag {
			c.maxObservedLag = lag
		}
		c.reg.Observe("embcache.hit_lag", int64(lag))
		hit[i] = true
		hits++
	}
	c.hits += int64(hits)
	c.misses += int64(len(nids) - hits)
	c.reg.Add("embcache.hits", int64(hits))
	c.reg.Add("embcache.misses", int64(len(nids)-hits))
	if staleDrops > 0 {
		c.reg.Add("embcache.stale_drops", int64(staleDrops))
		c.publishResidency()
	}
	return hit, hits
}

// Store inserts rows of t (one per nid, at the current version), evicting
// LRU entries as needed to fit the budget. Rows that cannot fit even
// after evicting everything else are skipped, never partially stored.
func (c *Cache) Store(nids []int32, t *tensor.Tensor) error {
	return c.store(nids, t, false)
}

// VerifyAndStore is the exact-mode path: any cached row already at the
// current version must be bitwise equal to the freshly recomputed row in
// t. A mismatch is a loud error — it means the cache and the forward
// disagree about the same weights, which is exactly the corruption the
// self-check mode exists to catch. Rows are then (re)stored as in Store.
func (c *Cache) VerifyAndStore(nids []int32, t *tensor.Tensor) error {
	return c.store(nids, t, true)
}

func (c *Cache) store(nids []int32, t *tensor.Tensor, verify bool) error {
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
		if e, ok := c.lru.Get(nid); ok {
			if verify && e.version == c.version {
				if j := mismatch(e.row, fresh); j >= 0 {
					c.reg.Add("embcache.verify_failures", 1)
					return fmt.Errorf("embcache: exact-mode verify failed for node %d at version %d: cached[%d]=%x recomputed=%x",
						nid, c.version, j, math.Float32bits(e.row[j]), math.Float32bits(fresh[j]))
				}
			}
			copy(e.row, fresh)
			e.version = c.version
			continue
		}
		buf, ok := c.reserveLocked(rowBytes)
		if !ok {
			budgetSkips++
			continue
		}
		c.lru.Insert(nid, &entry{version: c.version, row: append([]float32(nil), fresh...)}, buf)
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

// mismatch returns the first index where a and b differ bitwise, or -1.
// NaN payloads and signed zeros count as differences: the exact-mode
// contract is bit equality, not numeric equality.
func mismatch(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
