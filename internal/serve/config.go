package serve

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"betty/internal/embcache"
	"betty/internal/obs"
)

// Config holds every knob of the serving path. The zero value is not
// usable; start from Defaults (or fill every field) and optionally layer
// environment overrides on top with ApplyEnv.
type Config struct {
	// Fanouts are the per-layer sampling bounds, input-first — they must
	// match the model's layer count.
	Fanouts []int
	// Seed drives the node-wise sampler and the REG partitioner. Because
	// sampling is keyed per node (sample.NodeWise), the seed fixes every
	// node's neighborhood for the server's lifetime.
	Seed uint64

	// MaxBatch is the coalescing bound: the batcher takes what is already
	// queued when the worker comes free — it never waits for more — and
	// stops once the batch holds at least MaxBatch seed nodes. A batch
	// may exceed it by at most one request's nodes (a pulled request is
	// never split or pushed back); the memory planner, not MaxBatch, is
	// what bounds the device footprint.
	MaxBatch int
	// QueueDepth is the admission bound: requests beyond it are rejected
	// with ErrQueueFull (HTTP 429) instead of queuing without limit.
	QueueDepth int
	// CacheNodes is the feature-cache capacity in nodes; 0 disables the
	// cache.
	CacheNodes int
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry its own; 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxRequestNodes bounds the seed nodes of a single request.
	MaxRequestNodes int

	// EmbMode selects the historical-embedding cache behavior (DESIGN.md
	// §16): off (the default — no second cache), exact (populate + bitwise
	// self-check), or reuse (skip layer-1 compute on hits within
	// embcache.MaxLag versions). Its budget, embcache.BudgetBytes, is
	// charged to the same ledger as the feature cache.
	EmbMode embcache.Mode
	// embBudgetBytes is embcache.BudgetBytes everywhere but in the
	// budget-pressure test, which shrinks it so a small graph must evict.
	embBudgetBytes int64

	// CapacityBytes is the device memory budget the planner enforces per
	// micro-batch (forward-only accounting; see memory.Breakdown.ForwardPeak).
	CapacityBytes int64
	// SafetyMargin inflates the planner's estimates (see memory.Planner).
	SafetyMargin float64
	// MaxK caps the planner's partition search (0 = number of outputs).
	MaxK int

	// Clock is the time source for deadlines and latency metrics (nil
	// means obs.RealClock; tests inject obs.FakeClock).
	Clock obs.Clock
	// Obs, when non-nil, receives the serving spans and metrics.
	Obs *obs.Registry
	// BatchLog, when non-nil, receives one timing-free NDJSON line per
	// executed batch — the deterministic record of how requests coalesced.
	BatchLog io.Writer
}

// Defaults returns a config with production-shaped defaults for everything
// but Fanouts, which the caller must set to the model's layer structure.
func Defaults() Config {
	return Config{
		MaxBatch:        256,
		QueueDepth:      64,
		CacheNodes:      4096,
		DefaultTimeout:  time.Second,
		MaxRequestNodes: 1024,
		CapacityBytes:   256 << 20,
		embBudgetBytes:  embcache.BudgetBytes,
	}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if len(c.Fanouts) == 0 {
		return fmt.Errorf("serve: no fanouts configured")
	}
	for _, f := range c.Fanouts {
		if f == 0 || f < -1 {
			return fmt.Errorf("serve: bad fanout %d (positive or -1 for all neighbors)", f)
		}
	}
	if c.MaxBatch <= 0 {
		return fmt.Errorf("serve: MaxBatch must be positive (got %d)", c.MaxBatch)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("serve: QueueDepth must be positive (got %d)", c.QueueDepth)
	}
	if c.CacheNodes < 0 {
		return fmt.Errorf("serve: CacheNodes must be non-negative (got %d)", c.CacheNodes)
	}
	if c.DefaultTimeout < 0 {
		return fmt.Errorf("serve: DefaultTimeout must be non-negative (got %v)", c.DefaultTimeout)
	}
	if c.MaxRequestNodes <= 0 {
		return fmt.Errorf("serve: MaxRequestNodes must be positive (got %d)", c.MaxRequestNodes)
	}
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("serve: CapacityBytes must be positive (got %d)", c.CapacityBytes)
	}
	if c.SafetyMargin < 0 {
		return fmt.Errorf("serve: SafetyMargin must be non-negative (got %v)", c.SafetyMargin)
	}
	switch c.EmbMode {
	case embcache.ModeOff, embcache.ModeExact, embcache.ModeReuse:
	default:
		return fmt.Errorf("serve: unknown embedding-cache mode %d", int(c.EmbMode))
	}
	return nil
}

// The BETTY_SERVE_* environment knobs. Like BETTY_WORKERS (see
// parallel.ParseWorkers), a malformed value fails loudly at startup rather
// than silently serving under a different policy than the operator set.
const (
	EnvMaxBatch        = "BETTY_SERVE_MAX_BATCH"
	EnvQueueDepth      = "BETTY_SERVE_QUEUE_DEPTH"
	EnvCacheNodes      = "BETTY_SERVE_CACHE_NODES"
	EnvTimeoutMS       = "BETTY_SERVE_TIMEOUT_MS"
	EnvMaxRequestNodes = "BETTY_SERVE_MAX_REQUEST_NODES"
	EnvCapacityMiB     = "BETTY_SERVE_CAPACITY_MIB"
)

// ApplyEnv overlays environment overrides on c, reading variables through
// getenv (os.Getenv in production; tests pass a map lookup). Unset or empty
// variables leave the field untouched; any malformed value is an error
// naming the variable.
func (c *Config) ApplyEnv(getenv func(string) string) error {
	// max is the largest value whose scaled field still fits its type, so
	// an oversized value is an error instead of a silent wrap.
	intVars := []struct {
		name     string
		min, max int64
		set      func(int64)
	}{
		{EnvMaxBatch, 1, math.MaxInt, func(v int64) { c.MaxBatch = int(v) }},
		{EnvQueueDepth, 1, math.MaxInt, func(v int64) { c.QueueDepth = int(v) }},
		{EnvCacheNodes, 0, math.MaxInt, func(v int64) { c.CacheNodes = int(v) }},
		{EnvTimeoutMS, 0, math.MaxInt64 / int64(time.Millisecond), func(v int64) { c.DefaultTimeout = time.Duration(v) * time.Millisecond }},
		{EnvMaxRequestNodes, 1, math.MaxInt, func(v int64) { c.MaxRequestNodes = int(v) }},
		{EnvCapacityMiB, 1, math.MaxInt64 >> 20, func(v int64) { c.CapacityBytes = v << 20 }},
	}
	for _, ev := range intVars {
		raw := getenv(ev.name)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return fmt.Errorf("serve: %s=%q: not an integer", ev.name, raw)
		}
		if v < ev.min {
			return fmt.Errorf("serve: %s=%d: must be >= %d", ev.name, v, ev.min)
		}
		if v > ev.max {
			return fmt.Errorf("serve: %s=%d: must be <= %d", ev.name, v, ev.max)
		}
		ev.set(v)
	}
	// BETTY_EMBCACHE is a repo-wide contract (training honors it too); its
	// hardened parser lives next to the cache and maps "" to off, the
	// default, so only override when set.
	if raw := getenv(embcache.EnvMode); raw != "" {
		mode, err := embcache.ParseMode(raw)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		c.EmbMode = mode
	}
	return nil
}
