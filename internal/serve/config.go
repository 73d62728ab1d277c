package serve

import (
	"fmt"
	"io"
	"time"

	"betty/internal/obs"
)

// Config holds every knob of the serving path. The zero value is not
// usable; start from Defaults (or fill every field). bettyserve sets the
// policy fields from its flags.
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
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry its own; 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxRequestNodes bounds the seed nodes of a single request.
	MaxRequestNodes int

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
		DefaultTimeout:  time.Second,
		MaxRequestNodes: 1024,
		CapacityBytes:   256 << 20,
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
	return nil
}
