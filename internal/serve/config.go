package serve

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"betty/internal/embcache"
	"betty/internal/obs"
	"betty/internal/tensor"
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
	// §16): off, exact (populate + bitwise self-check, the default), or
	// reuse (skip layer-1 compute on hits within EmbMaxLag versions).
	EmbMode embcache.Mode
	// EmbBudgetMiB bounds the embedding cache's resident bytes; charged
	// to the same ledger as the feature cache.
	EmbBudgetMiB int64
	// EmbMaxLag is the maximum weight-version lag a reuse hit may carry.
	EmbMaxLag int

	// Quant selects the at-rest storage format of the serving path's
	// weights and cached feature rows (DESIGN.md §13): QuantOff (exact
	// f32, the default) or QuantInt8. The forward kernels stay exact f32
	// either way — quantized storage is dequantized into pooled scratch
	// before each batch — so QuantOff serves bitwise what an unquantized
	// deployment serves, and int8 trades the documented round-trip error
	// for a smaller resident model.
	Quant tensor.QuantMode

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
		EmbMode:         embcache.ModeExact,
		EmbBudgetMiB:    64,
		EmbMaxLag:       1,
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
	switch c.Quant {
	case tensor.QuantOff, tensor.QuantInt8:
	default:
		return fmt.Errorf("serve: unknown quant mode %d", int(c.Quant))
	}
	switch c.EmbMode {
	case embcache.ModeOff, embcache.ModeExact, embcache.ModeReuse:
	default:
		return fmt.Errorf("serve: unknown embedding-cache mode %d", int(c.EmbMode))
	}
	if c.EmbMode != embcache.ModeOff && c.EmbBudgetMiB <= 0 {
		return fmt.Errorf("serve: EmbBudgetMiB must be positive with the embedding cache on (got %d)", c.EmbBudgetMiB)
	}
	if c.EmbMaxLag < 0 {
		return fmt.Errorf("serve: EmbMaxLag must be non-negative (got %d)", c.EmbMaxLag)
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
	// EnvQuant selects the quantized serving storage (off/int8); it is
	// deliberately not BETTY_SERVE_-prefixed because it names a repo-wide
	// numerics contract (DESIGN.md §13), not a batching policy.
	EnvQuant = "BETTY_QUANT"
)

// ApplyEnv overlays environment overrides on c, reading variables through
// getenv (os.Getenv in production; tests pass a map lookup). Unset or empty
// variables leave the field untouched; any malformed value is an error
// naming the variable.
func (c *Config) ApplyEnv(getenv func(string) string) error {
	intVars := []struct {
		name string
		min  int64
		set  func(int64)
	}{
		{EnvMaxBatch, 1, func(v int64) { c.MaxBatch = int(v) }},
		{EnvQueueDepth, 1, func(v int64) { c.QueueDepth = int(v) }},
		{EnvCacheNodes, 0, func(v int64) { c.CacheNodes = int(v) }},
		{EnvTimeoutMS, 0, func(v int64) { c.DefaultTimeout = time.Duration(v) * time.Millisecond }},
		{EnvMaxRequestNodes, 1, func(v int64) { c.MaxRequestNodes = int(v) }},
		{EnvCapacityMiB, 1, func(v int64) { c.CapacityBytes = v << 20 }},
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
		ev.set(v)
	}
	if raw := getenv(EnvQuant); raw != "" {
		mode, err := tensor.ParseQuantMode(raw)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		c.Quant = mode
	}
	// The embedding-cache knobs are repo-wide contracts like BETTY_QUANT
	// (training honors them too); their hardened parsers live next to the
	// cache. ParseMode maps "" to exact, so only override when set.
	if raw := getenv(embcache.EnvMode); raw != "" {
		mode, err := embcache.ParseMode(raw)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		c.EmbMode = mode
	}
	if mib, err := embcache.ParseBudgetMiB(getenv(embcache.EnvBudgetMiB)); err != nil {
		return fmt.Errorf("serve: %w", err)
	} else if mib > 0 {
		c.EmbBudgetMiB = mib
	}
	if lag, err := embcache.ParseMaxLag(getenv(embcache.EnvMaxLag)); err != nil {
		return fmt.Errorf("serve: %w", err)
	} else if lag >= 0 {
		c.EmbMaxLag = lag
	}
	return nil
}
