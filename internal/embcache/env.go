// Package embcache is a versioned historical-embedding cache: it stores
// layer-1 activations keyed by (weight version, node id) so consecutive
// minibatches — training micro-batches and concurrent serve requests
// alike — can reuse rows computed moments ago instead of re-running the
// layer-1 gather+aggregate for them (DESIGN.md §16).
//
// Three modes, selected by BETTY_EMBCACHE:
//
//   - off:   the default. No cache is built; forwards take the plain
//     per-layer path.
//   - exact: the opt-in self-check. Every forward computes layer 1 in
//     full, and cached rows are verified bitwise against the fresh
//     recomputation before being refreshed — outputs and gradients are
//     bitwise identical to off, and any divergence is a loud error.
//   - reuse: the fast path. Hits at version lag ≤ MaxLag skip layer-1
//     compute for those rows; the cached row is spliced into
//     the layer-2 input as a constant (no gradient flows through it).
//     Staleness is bounded: rows older than the lag budget miss and are
//     dropped lazily.
//
// Resident bytes are budget-pinned LRU, charged to a device.Device ledger
// (the same accounting discipline as internal/store's shard cache), so
// the cache composes with the planner's memory budgets.
package embcache

import (
	"fmt"

	"betty/internal/device"
)

// Mode selects the cache behavior (BETTY_EMBCACHE).
type Mode int

const (
	// ModeOff disables the cache entirely. The default.
	ModeOff Mode = iota
	// ModeExact populates the cache and verifies hits bitwise against the
	// full recomputation; compute is never skipped.
	ModeExact
	// ModeReuse skips layer-1 compute for hits within the version-lag
	// budget; cached rows enter the forward as constants.
	ModeReuse
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeExact:
		return "exact"
	case ModeReuse:
		return "reuse"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// EnvMode selects off/exact/reuse (see the README knob table). No
// BETTY_SERVE_ prefix: this is a repo-wide numeric contract, honored
// identically by training and serving.
const EnvMode = "BETTY_EMBCACHE"

// The cache's sizing, one value each wherever a cache is built.
const (
	// BudgetBytes bounds the cache's resident bytes (ledger-charged).
	BudgetBytes = 64 * device.MiB
	// MaxLag bounds how many weight versions old a reusable row may be.
	MaxLag = 1
)

// ParseMode interprets BETTY_EMBCACHE. Empty means off — the plain path,
// the default; a malformed value is a loud error, never a silent fallback
// to a different caching policy.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return ModeOff, nil
	case "exact":
		return ModeExact, nil
	case "reuse":
		return ModeReuse, nil
	default:
		return ModeOff, fmt.Errorf("%s=%q invalid (want off, exact, or reuse)", EnvMode, s)
	}
}
