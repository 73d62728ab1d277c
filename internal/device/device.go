// Package device simulates the accelerator the paper trains on: a memory
// ledger with a hard capacity that produces out-of-memory errors exactly
// when allocations exceed it, and a deterministic cost model for host-to-
// device transfers and compute.
//
// The paper's claims are stated in bytes allocated and relative time, not
// in CUDA specifics, so a byte-accurate ledger reproduces the OOM
// boundaries and the cost model reproduces the time *shape* (who wins,
// where the knees fall). Determinism means benchmarks and tests are stable
// across machines.
package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOOM is returned (wrapped) when an allocation would exceed capacity.
var ErrOOM = errors.New("device: out of memory")

// Common byte sizes.
const (
	KiB int64 = 1024
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
)

// CostModel converts bytes and floating-point operations into simulated
// seconds. The defaults approximate a PCIe 3.0 x16 link and a mid-range
// fp32 accelerator; only ratios matter for the reproduced figures.
type CostModel struct {
	// H2DBandwidth is the host-to-device copy bandwidth in bytes/second.
	H2DBandwidth float64
	// TransferLatency is the fixed per-transfer setup cost in seconds.
	TransferLatency float64
	// Throughput is the effective compute rate in FLOP/second.
	Throughput float64
	// KernelLatency is the fixed per-kernel launch cost in seconds.
	KernelLatency float64
}

// DefaultCostModel returns the cost model used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		H2DBandwidth:    12e9,  // ~PCIe 3.0 x16 effective
		TransferLatency: 20e-6, // 20 us per transfer
		Throughput:      5e12,  // 5 TFLOP/s effective fp32
		KernelLatency:   5e-6,  // 5 us per kernel
	}
}

// TransferTime returns the simulated seconds to copy n bytes host->device.
func (m CostModel) TransferTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return m.TransferLatency + float64(n)/m.H2DBandwidth
}

// AllocGranularity is the block size the simulated caching allocator rounds
// every allocation up to, mirroring CUDA caching allocators. It is the main
// source of the gap between estimated and "measured" memory (Table 7).
const AllocGranularity int64 = 512

// RoundAlloc returns what an n-byte allocation actually charges the ledger:
// n rounded up to AllocGranularity.
func RoundAlloc(n int64) int64 {
	return (n + AllocGranularity - 1) / AllocGranularity * AllocGranularity
}

// Buffer is a live allocation on the device.
type Buffer struct {
	id    int64
	bytes int64
	label string
	freed bool
}

// Bytes returns the allocation's rounded byte size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Label returns the label given at allocation time.
func (b *Buffer) Label() string { return b.label }

// Device is a simulated accelerator: an allocation ledger with capacity
// plus accumulated transfer/compute clocks. All methods are safe for
// concurrent use: the ledger is guarded by a mutex so the chunk-parallel
// evaluator and multi-goroutine training paths can share one device.
type Device struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
	nextID   int64
	live     map[int64]*Buffer

	model        CostModel
	transferTime float64
	computeTime  float64
}

// New returns a device with the given memory capacity and cost model.
func New(capacity int64, model CostModel) *Device {
	return &Device{capacity: capacity, model: model, live: make(map[int64]*Buffer)}
}

// Capacity returns the configured memory capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// Used returns the currently allocated bytes (after rounding).
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Peak returns the maximum of Used over the device's lifetime (or since
// ResetPeak).
func (d *Device) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Alloc reserves n bytes (rounded up to AllocGranularity) under a label.
// It fails with an error wrapping ErrOOM if capacity would be exceeded.
func (d *Device) Alloc(n int64, label string) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("device: negative allocation %d (%s)", n, label)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rounded := RoundAlloc(n)
	if d.used+rounded > d.capacity {
		return nil, fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrOOM, label, rounded, d.used, d.capacity)
	}
	d.nextID++
	b := &Buffer{id: d.nextID, bytes: rounded, label: label}
	d.live[b.id] = b
	d.used += rounded
	if d.used > d.peak {
		d.peak = d.used
	}
	return b, nil
}

// Free releases a buffer. Double frees are ignored.
func (d *Device) Free(b *Buffer) {
	if b == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.freed {
		return
	}
	if _, ok := d.live[b.id]; !ok {
		return
	}
	delete(d.live, b.id)
	d.used -= b.bytes
	b.freed = true
}

// ResetPeak sets the peak tracker to the current usage.
func (d *Device) ResetPeak() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peak = d.used
}

// Transfer accounts a host-to-device copy of n bytes and returns the
// simulated seconds it took.
func (d *Device) Transfer(n int64) float64 {
	t := d.model.TransferTime(n)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.transferTime += t
	return t
}

// ComputeKernels accounts a batch of kernels with a total FLOP count: the
// FLOP time plus one launch latency per kernel. Training steps issue one
// kernel per recorded operation (and roughly two more each in backward),
// so per-batch launch overhead grows with partitioning — the "lower GPU
// utilization" cost of many small micro-batches (§6.3).
func (d *Device) ComputeKernels(flops float64, kernels int) float64 {
	t := flops / d.model.Throughput
	if kernels > 0 {
		t += float64(kernels) * d.model.KernelLatency
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.computeTime += t
	return t
}

// TransferSeconds returns the accumulated simulated transfer time.
func (d *Device) TransferSeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transferTime
}

// ComputeSeconds returns the accumulated simulated compute time.
func (d *Device) ComputeSeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.computeTime
}

// LiveBuffers returns the labels and sizes of live allocations sorted by
// descending size — a debugging aid when chasing simulated OOM.
func (d *Device) LiveBuffers() []Buffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Buffer, 0, len(d.live))
	for _, b := range d.live {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bytes != out[j].bytes {
			return out[i].bytes > out[j].bytes
		}
		return out[i].id < out[j].id
	})
	return out
}
