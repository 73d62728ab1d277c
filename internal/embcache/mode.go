// Package embcache is serving's historical-embedding cache: it stores
// layer-1 activations keyed by node id so concurrent serve requests can
// reuse rows computed moments ago instead of re-running the layer-1
// gather+aggregate for them (DESIGN.md §16).
//
// The cache holds no weight versions. A server's weights never change
// during its lifetime — bettyserve loads its checkpoint or trains its
// warm-up epochs before serve.New — and serving samples node-wise, so a
// node's layer-1 row is a pure function of the node for as long as the
// cache lives. Training has no cache: its optimizer steps change the
// weights every batch, and a reused row would stop the gradient.
//
// Two modes, selected by bettyserve -embcache:
//
//   - off:   the default. No cache is built; forwards take the plain
//     per-layer path.
//   - reuse: the fast path. Hits skip layer-1 compute for those rows; the
//     cached row is spliced into the layer-2 input, so responses stay
//     bitwise equal to off.
//
// Resident bytes are budget-pinned LRU, charged to a device.Device ledger
// (the same accounting discipline as internal/store's shard cache), so
// the cache composes with the planner's memory budgets.
package embcache

import (
	"fmt"

	"betty/internal/device"
)

// Mode selects the cache behavior (bettyserve -embcache).
type Mode int

const (
	// ModeOff disables the cache entirely. The default.
	ModeOff Mode = iota
	// ModeReuse skips layer-1 compute for hits; cached rows enter the
	// forward as constants.
	ModeReuse
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeReuse:
		return "reuse"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// BudgetBytes bounds a server's cache's resident bytes (ledger-charged).
const BudgetBytes = 64 * device.MiB

// ParseMode interprets bettyserve's -embcache value. Empty means off — the plain path,
// the default; a malformed value is a loud error, never a silent fallback
// to a different caching policy.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return ModeOff, nil
	case "reuse":
		return ModeReuse, nil
	default:
		return ModeOff, fmt.Errorf("-embcache %q invalid (want off or reuse)", s)
	}
}
