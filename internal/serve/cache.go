package serve

import "betty/internal/device"

// featureCache is an LRU cache of gathered input-feature rows keyed by
// global node ID. It is owned by the single batch worker goroutine, so it
// needs no locking. Rows are exact f32 copies of the source rows: a hit
// changes which bytes are copied, never what they are, so cache state
// cannot affect served predictions.
//
// Resident row bytes are charged to the server's cache ledger — the same
// device.Device the embedding cache charges when it is on — so all resident
// cache state is accountable against one budget. Order, charging and
// eviction are device.LRU's; this type adds the row-count cap. A row the
// ledger cannot fit even after evicting this cache's own tail is simply not
// cached (the miss path already produced the staged bytes), never a failed
// request.
type featureCache struct {
	capNodes int
	lru      *device.LRU[int32, []float32]
}

// newFeatureCache returns a cache holding up to capNodes rows, charging
// resident bytes to ledger. capNodes <= 0 returns nil: gather then reads
// the source directly, and flush, len and residentBytes are nil-safe.
func newFeatureCache(capNodes int, ledger *device.Device) *featureCache {
	if capNodes <= 0 {
		return nil
	}
	return &featureCache{capNodes: capNodes, lru: device.NewLRU[int32, []float32](ledger, "serve.feature_row")}
}

// put caches a copy of src as nid's row. nid must not be resident: the
// caller has just missed on it. A full cache recycles its least recently
// used entry — same ledger charge, same storage, no allocation; only growth
// reserves.
func (c *featureCache) put(nid int32, src []float32) {
	if c.lru.Len() >= c.capNodes {
		if row, ok := c.lru.Recycle(nid); ok {
			copy(*row, src)
			return
		}
	}
	if buf, ok := c.lru.Reserve(int64(len(src)) * 4); ok {
		c.lru.Insert(nid, append([]float32(nil), src...), buf)
	}
}

// flush drops every entry and releases its ledger charge.
func (c *featureCache) flush() {
	if c != nil {
		c.lru.Flush()
	}
}

// len returns the resident node count.
func (c *featureCache) len() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// residentBytes returns the ledger-charged resident row bytes.
func (c *featureCache) residentBytes() int64 {
	if c == nil {
		return 0
	}
	return c.lru.Bytes()
}
