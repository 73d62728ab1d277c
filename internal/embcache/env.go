// Package embcache is a versioned historical-embedding cache: it stores
// layer-1 activations keyed by (weight version, node id) so consecutive
// minibatches — training micro-batches and concurrent serve requests
// alike — can reuse rows computed moments ago instead of re-running the
// layer-1 gather+aggregate for them (DESIGN.md §16).
//
// Three modes, selected by BETTY_EMBCACHE:
//
//   - off:   the cache is inert; forwards take the plain per-layer path.
//   - exact: the default self-check mode. Every forward computes layer 1
//     in full, and cached rows are verified bitwise against the fresh
//     recomputation before being refreshed — outputs and gradients are
//     bitwise identical to off, and any divergence is a loud error.
//   - reuse: the fast path. Hits at version lag ≤ BETTY_EMBCACHE_MAX_LAG
//     skip layer-1 compute for those rows; the cached row is spliced into
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
	"strconv"
)

// Mode selects the cache behavior (BETTY_EMBCACHE).
type Mode int

const (
	// ModeOff disables the cache entirely.
	ModeOff Mode = iota
	// ModeExact populates the cache and verifies hits bitwise against the
	// full recomputation; compute is never skipped. The default.
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

// Environment knobs (see the README knob table).
const (
	// EnvMode selects off/exact/reuse. No BETTY_SERVE_ prefix: like
	// BETTY_QUANT this is a repo-wide numeric contract, honored
	// identically by training and serving.
	EnvMode = "BETTY_EMBCACHE"
	// EnvBudgetMiB bounds the cache's resident bytes (ledger-charged).
	EnvBudgetMiB = "BETTY_EMBCACHE_BUDGET_MIB"
	// EnvMaxLag bounds how many weight versions old a reusable row may be.
	EnvMaxLag = "BETTY_EMBCACHE_MAX_LAG"
)

// ParseMode interprets BETTY_EMBCACHE. Empty means exact — the
// self-checking default; a malformed value is a loud error, never a
// silent fallback to a different caching policy.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "off":
		return ModeOff, nil
	case "reuse":
		return ModeReuse, nil
	default:
		return ModeOff, fmt.Errorf("%s=%q invalid (want off, exact, or reuse)", EnvMode, s)
	}
}

// ParseBudgetMiB interprets BETTY_EMBCACHE_BUDGET_MIB. Empty returns 0
// (unset — caller keeps its default); anything else must be a positive
// integer number of MiB.
func ParseBudgetMiB(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%s=%q invalid (want a positive integer MiB)", EnvBudgetMiB, s)
	}
	return v, nil
}

// ParseMaxLag interprets BETTY_EMBCACHE_MAX_LAG. Empty returns -1
// (unset — caller keeps its default); 0 is meaningful (reuse only
// same-version rows), so the unset sentinel is negative.
func ParseMaxLag(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s=%q invalid (want a non-negative integer)", EnvMaxLag, s)
	}
	return v, nil
}
