package serve

import (
	"betty/internal/device"
	"betty/internal/tensor"
)

// featureCache is an LRU cache of gathered input-feature rows keyed by
// global node ID, stored in the server's quantized format (quantRow; f32
// copies under QuantOff). It is owned by the single batch worker goroutine,
// so it needs no locking. Under QuantOff a hit changes which bytes are
// copied, never what they are; under a quantized mode the gather path
// round-trips misses through the same codec before staging, so cache state
// still cannot affect served predictions.
//
// Resident row bytes are charged to the server's cache ledger — the same
// device.Device the embedding cache charges — so all resident cache state
// is accountable against one budget. Order, charging and eviction are
// device.LRU's; this type adds the row-count cap and nil-safety. A row the
// ledger cannot fit even after evicting this cache's own tail is simply
// not cached (the miss path already produced the staged bytes), never a
// failed request.
type featureCache struct {
	capNodes int
	lru      *device.LRU[int32, quantRow]
}

// newFeatureCache returns a cache holding up to capNodes rows, charging
// resident bytes to ledger; capNodes <= 0 returns nil, and every method is
// safe on a nil cache (always a miss).
func newFeatureCache(capNodes int, ledger *device.Device) *featureCache {
	if capNodes <= 0 {
		return nil
	}
	return &featureCache{capNodes: capNodes, lru: device.NewLRU[int32, quantRow](ledger, "serve.feature_row")}
}

// get returns the cached row for nid (marking it most recently used); the
// second result reports a hit.
func (c *featureCache) get(nid int32) (quantRow, bool) {
	if c == nil {
		return quantRow{}, false
	}
	return c.lru.Get(nid)
}

// put encodes src as nid's row, caches it, and returns the encoding, whose
// decoding the caller stages. nid must not be resident: the caller has just
// missed on it. A full cache recycles its least recently used entry — same
// ledger charge, same storage, no allocation; only growth reserves.
func (c *featureCache) put(nid int32, mode tensor.QuantMode, src []float32) quantRow {
	if c == nil {
		return encodeRow(mode, src)
	}
	if c.lru.Len() >= c.capNodes {
		if row, ok := c.lru.Recycle(nid); ok {
			row.encode(src)
			return *row
		}
	}
	row := encodeRow(mode, src)
	if buf, ok := c.lru.Reserve(row.bytes()); ok {
		c.lru.Insert(nid, row, buf)
	}
	return row
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
