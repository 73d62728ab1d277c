package dataset

import (
	"fmt"
	"slices"

	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/parallel"
	"betty/internal/tensor"
)

// Stage is one batch's input frontier — the union of its micro-batches'
// layer-0 inputs — copied out of a FeatureSource with a single gather in
// ascending node-ID (and so shard) order. Training and serving each load
// one per batch and read every micro-batch's input rows from it, so a
// disk-backed source is walked once per batch instead of once per
// micro-batch or per row (paper §3: the full batch stays in host memory,
// only micro-batch inputs move). The stage holds the same bytes the source
// does, so nothing read through it changes.
//
// A loaded Stage is a FeatureSource over the staged nodes: row i of data
// is node nids[i]'s row. row is the node → row table. It is kept across
// batches and never cleared: an entry is trusted only when
// nids[row[nid]] == nid, so a stale one reads as a missing node. A Stage
// serves one batch at a time.
type Stage struct {
	src  FeatureSource
	nids []int32
	data []float32 // pooled scratch, len(nids) × Dim; nil when nothing is staged
	row  []int32
}

// sharded is implemented by feature sources that store rows in shards of
// consecutive node IDs (store.Features); the stage span reports how many
// shards a batch touched.
type sharded interface{ ShardRows() int }

// Load replaces the stage's contents with the input frontier of micros,
// gathered from src, and returns the source the batch should read: the
// stage, or src itself when src keeps every row in RAM and staging would
// only copy it. On error or panic nothing stays staged, and the pooled
// buffer the gather filled is returned.
func (s *Stage) Load(src FeatureSource, micros [][]*graph.Block, reg *obs.Registry) (FeatureSource, error) {
	s.Release()
	dim := src.Dim()
	if src.ResidentBytes() >= int64(src.Rows())*int64(dim)*4 {
		return src, nil
	}
	nids := s.nids
	for _, mb := range micros {
		nids = append(nids, mb[0].SrcNID...)
	}
	slices.Sort(nids)
	nids = slices.Compact(nids)
	bytes := int64(len(nids)) * int64(dim) * 4
	sp := reg.StartSpan(obs.PhaseStage).
		SetInt("rows", int64(len(nids))).
		SetInt("bytes", bytes)
	if sh, ok := src.(sharded); ok {
		sp.SetInt("shards", int64(shardsTouched(nids, sh.ShardRows())))
	}
	data := tensor.AcquireScratch(len(nids) * dim)
	staged := false
	defer func() {
		if !staged { // a failed or panicking gather
			tensor.ReleaseScratch(data)
		}
	}()
	err := src.GatherInto(tensor.FromSlice(len(nids), dim, data), nids)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dataset: staging batch inputs: %w", err)
	}
	staged = true
	// GatherInto validated every ID against Rows, so the table covers them.
	if len(s.row) != src.Rows() {
		s.row = make([]int32, src.Rows())
	}
	for i, nid := range nids {
		s.row[nid] = int32(i)
	}
	s.src, s.nids, s.data = src, nids, data
	return s, nil
}

// Release returns the staged rows to the pool; until the next Load the
// stage holds no node. It is a no-op when nothing is staged.
func (s *Stage) Release() {
	tensor.ReleaseScratch(s.data)
	s.nids, s.data = s.nids[:0], nil
}

// shardsTouched counts the distinct shards of shardRows consecutive node
// IDs that ascending nids fall in.
func shardsTouched(nids []int32, shardRows int) int {
	n, last := 0, -1
	for _, nid := range nids {
		if s := int(nid) / shardRows; s != last {
			n, last = n+1, s
		}
	}
	return n
}

// Rows is the node-ID range of the staged source.
func (s *Stage) Rows() int { return s.src.Rows() }

// Dim returns the feature width.
func (s *Stage) Dim() int { return s.src.Dim() }

// ResidentBytes is the staged rows' size; 0 when nothing is staged.
func (s *Stage) ResidentBytes() int64 { return int64(len(s.data)) * 4 }

// lookup returns node nid's staged row. A node the stage does not hold is
// an error, never a wrong row.
func (s *Stage) lookup(nid int32) ([]float32, error) {
	if nid < 0 || int(nid) >= len(s.row) ||
		int(s.row[nid]) >= len(s.nids) || s.nids[s.row[nid]] != nid {
		return nil, fmt.Errorf("dataset: node %d is not in the staged batch frontier", nid)
	}
	dim := s.Dim()
	i := int(s.row[nid]) * dim
	return s.data[i : i+dim], nil
}

// GatherInto copies the staged rows of nids into out.
func (s *Stage) GatherInto(out *tensor.Tensor, nids []int32) error {
	if out.Rows() != len(nids) || out.Cols() != s.Dim() {
		return fmt.Errorf("dataset: gather into %dx%d, want %dx%d",
			out.Rows(), out.Cols(), len(nids), s.Dim())
	}
	for _, nid := range nids {
		if _, err := s.lookup(nid); err != nil {
			return err
		}
	}
	parallel.For(len(nids), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row, _ := s.lookup(nids[i])
			copy(out.Row(i), row)
		}
	})
	return nil
}
