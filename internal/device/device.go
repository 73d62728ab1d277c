// Package device simulates the accelerator the paper trains on: a memory
// ledger with a hard capacity that produces out-of-memory errors exactly
// when allocations exceed it.
//
// The paper's memory claims are stated in bytes allocated, not in CUDA
// specifics, so a byte-accurate ledger reproduces the OOM boundaries. The
// device models no time: the experiments report the exact bytes each batch
// moves host-to-device, and wall-clock time is measured on the real kernels.
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

// CostModel is an empty, inert stub, kept only so that New's existing
// callers (benchmark/ among them) compile unchanged. The device keeps no
// clock: time is measured on the real kernels, and the bytes a batch moves
// are counted exactly (train.StepResult.H2DBytes).
type CostModel struct{}

// DefaultCostModel returns the empty CostModel stub.
func DefaultCostModel() CostModel { return CostModel{} }

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

// Device is a simulated accelerator: an allocation ledger with capacity.
// All methods are safe for concurrent use: the ledger is guarded by a mutex
// so the chunk-parallel evaluator and multi-goroutine training paths can
// share one device.
type Device struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
	nextID   int64
	live     map[int64]*Buffer
}

// New returns a device with the given memory capacity. The CostModel
// argument is an ignored stub (see CostModel).
func New(capacity int64, _ CostModel) *Device {
	return &Device{capacity: capacity, live: make(map[int64]*Buffer)}
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
