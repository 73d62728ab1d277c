package store

import (
	"fmt"

	"betty/internal/parallel"
	"betty/internal/tensor"
)

// Features is the disk-backed dataset.FeatureSource: every gather groups
// its node IDs by shard, pins each touched shard through the cache, copies
// the rows, and unpins. Row bytes come off the disk bit-exact, so a gather
// through Features is bitwise identical to the same gather against the
// in-RAM matrix the store was packed from — the property the out-of-core
// equivalence tests pin.
//
// Concurrency: shards are processed by parallel.For with one shard per
// work item, and each worker holds at most one pin at a time, which is the
// progress guarantee Cache.Pin's blocking relies on. Output rows are
// disjoint, so the parallel copy is deterministic.
type Features struct {
	cache *Cache
}

// NewFeatures wraps a cache as a FeatureSource.
func NewFeatures(c *Cache) *Features { return &Features{cache: c} }

// Rows returns the number of feature rows.
func (f *Features) Rows() int { return f.cache.store.NumNodes() }

// Dim returns the feature width.
func (f *Features) Dim() int { return f.cache.store.Dim() }

// ShardRows returns the shard height: shard s holds node IDs
// [s·ShardRows, (s+1)·ShardRows).
func (f *Features) ShardRows() int { return f.cache.store.ShardRows() }

// ResidentBytes is the cache's current residency — bounded by the budget,
// not the dataset size.
func (f *Features) ResidentBytes() int64 { return f.cache.ResidentBytes() }

// GatherInto copies the rows for the given global node IDs into out.
func (f *Features) GatherInto(out *tensor.Tensor, nids []int32) error {
	if out.Rows() != len(nids) || out.Cols() != f.Dim() {
		return fmt.Errorf("store: gather into %dx%d, want %dx%d",
			out.Rows(), out.Cols(), len(nids), f.Dim())
	}
	rows := f.Rows()
	shardRows := f.ShardRows()
	for _, nid := range nids {
		if nid < 0 || int(nid) >= rows {
			return fmt.Errorf("store: gather node %d out of range [0,%d)", nid, rows)
		}
	}

	// Bucket gather positions by shard with a counting sort: deterministic
	// (no map iteration) and O(nids + shards). touched lists the non-empty
	// shards in ascending ID order; pos holds each shard's positions into
	// nids, contiguous in the order they appear.
	nShards := f.cache.store.NumShards()
	counts := make([]int32, nShards+1)
	for _, nid := range nids {
		counts[int(nid)/shardRows+1]++
	}
	for s := 0; s < nShards; s++ {
		counts[s+1] += counts[s]
	}
	pos := make([]int32, len(nids))
	cursor := make([]int32, nShards)
	for s := range cursor {
		cursor[s] = counts[s]
	}
	for i, nid := range nids {
		s := int(nid) / shardRows
		pos[cursor[s]] = int32(i)
		cursor[s]++
	}
	var touched []int32
	for s := 0; s < nShards; s++ {
		if counts[s+1] > counts[s] {
			touched = append(touched, int32(s))
		}
	}

	// One shard per work item: a worker pins, copies its shard's rows, and
	// unpins before taking the next shard, so at most Workers() shards are
	// pinned at any instant and every worker can always make progress.
	errs := make([]error, len(touched))
	parallel.For(len(touched), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			sid := int(touched[t])
			sh, err := f.cache.Pin(sid)
			if err != nil {
				errs[t] = err
				continue
			}
			for _, p := range pos[counts[sid]:counts[sid+1]] {
				copy(out.Row(int(p)), sh.Row(int(nids[p])))
			}
			f.cache.Unpin(sh)
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("store: gather: %w", err)
		}
	}
	return nil
}

// GatherRow copies one row into dst.
func (f *Features) GatherRow(dst []float32, nid int32) error {
	if len(dst) != f.Dim() {
		return fmt.Errorf("store: gather row into len %d, want %d", len(dst), f.Dim())
	}
	if nid < 0 || int(nid) >= f.Rows() {
		return fmt.Errorf("store: gather node %d out of range [0,%d)", nid, f.Rows())
	}
	sh, err := f.cache.Pin(int(nid) / f.ShardRows())
	if err != nil {
		return fmt.Errorf("store: gather row %d: %w", nid, err)
	}
	copy(dst, sh.Row(int(nid)))
	f.cache.Unpin(sh)
	return nil
}
