package dataset

import (
	"fmt"

	"betty/internal/parallel"
	"betty/internal/tensor"
)

// FeatureSource abstracts where input-feature rows live. The in-RAM
// implementation below wraps the dense feature matrix; internal/store adds
// a disk-backed implementation whose resident footprint is bounded by a
// cache budget instead of the dataset size. Everything downstream of the
// per-batch gather — training, evaluation, serving — goes through this
// interface, so swapping the backing store cannot change a single staged
// byte: both implementations copy the same rows in the same order.
//
// Implementations must be safe for concurrent Gather calls (evaluation
// chunks and serving batches gather in parallel) and must fail loudly —
// a row that cannot be produced is an error, never silent zeros.
type FeatureSource interface {
	// Rows is the number of feature rows (one per node).
	Rows() int
	// Dim is the feature width.
	Dim() int
	// GatherInto copies the rows for the given global node IDs into out,
	// which must be len(nids) x Dim. When it returns nil it has written
	// every row of out, so out may start with any values (tensor.Tape.Alloc
	// hands out unzeroed pool memory for it).
	GatherInto(out *tensor.Tensor, nids []int32) error
	// ResidentBytes is the source's current host-memory footprint. For the
	// in-RAM source this is the whole matrix; for a disk-backed source it
	// is the bytes currently cached, which is what makes HostBytes honest
	// under out-of-core training.
	ResidentBytes() int64
}

// MatrixSource is the in-RAM FeatureSource: a dense feature matrix. It is
// a renaming of tensor.Tensor rather than a wrapper struct so that the
// conversion from an existing matrix is free and the interface value stays
// pointer-shaped (no per-gather boxing allocation).
type MatrixSource tensor.Tensor

// AsSource views a dense feature matrix as a FeatureSource.
func AsSource(t *tensor.Tensor) *MatrixSource { return (*MatrixSource)(t) }

func (m *MatrixSource) t() *tensor.Tensor { return (*tensor.Tensor)(m) }

// Rows returns the number of feature rows.
func (m *MatrixSource) Rows() int { return m.t().Rows() }

// Dim returns the feature width.
func (m *MatrixSource) Dim() int { return m.t().Cols() }

// GatherInto copies the rows for the given global node IDs into out. Rows
// are disjoint, so the parallel copy is deterministic.
func (m *MatrixSource) GatherInto(out *tensor.Tensor, nids []int32) error {
	if out.Rows() != len(nids) || out.Cols() != m.Dim() {
		return fmt.Errorf("dataset: gather into %dx%d, want %dx%d",
			out.Rows(), out.Cols(), len(nids), m.Dim())
	}
	rows := m.Rows()
	for _, nid := range nids {
		if nid < 0 || int(nid) >= rows {
			return fmt.Errorf("dataset: gather node %d out of range [0,%d)", nid, rows)
		}
	}
	src := m.t()
	parallel.For(len(nids), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), src.Row(int(nids[i])))
		}
	})
	return nil
}

// ResidentBytes is the full matrix: the in-RAM source keeps everything
// resident.
func (m *MatrixSource) ResidentBytes() int64 { return int64(m.t().Len()) * 4 }
