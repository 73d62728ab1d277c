// Package reg implements Betty's redundancy-embedded graph (REG)
// construction and the batch-level partitioning algorithms compared in the
// paper (Algorithm 1 and §6.1): given the output (last) layer's bipartite
// block of a GNN batch, each BatchPartitioner splits the output nodes into
// K groups from which micro-batches are built.
//
// The REG is the Gram matrix C = AᵀA of the block's adjacency: entry
// c_ij counts the in-neighbors shared by output nodes i and j, so a K-way
// min-edge-cut partition of the REG minimizes the input-node redundancy
// created when the batch is split (§4.3.2).
package reg

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/partition"
	"betty/internal/rng"
)

// BatchPartitioner splits a batch's output nodes into K groups. The
// returned groups hold *local destination indices* of the last-layer block;
// every group is non-empty and the groups partition [0, NumDst).
//
// Partitioning is two steps because the planner tries several K on one
// batch: Prepare does whatever does not depend on K — for Betty the REG,
// Algorithm 1's C = AᵀA — once, and Prepared.Partition cuts a K-way split
// from it.
type BatchPartitioner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Prepare does the batch's K-independent partitioning work.
	Prepare(last *graph.Block) (*Prepared, error)
	// PartitionBatch returns K disjoint, covering groups of local output
	// indices of the block: Prepare followed by one Partition.
	PartitionBatch(last *graph.Block, k int) ([][]int32, error)
}

// Prepared is one batch readied for partitioning at any number of K.
type Prepared struct {
	numDst int
	split  func(k int) ([][]int32, error)
}

// Partition returns K disjoint, covering groups of local output indices.
func (p *Prepared) Partition(k int) ([][]int32, error) {
	if err := validateBatchK(p.numDst, k); err != nil {
		return nil, err
	}
	return p.split(k)
}

// partitionBatch is every partitioner's PartitionBatch. K is checked first
// so a bad K costs no Prepare.
func partitionBatch(p BatchPartitioner, last *graph.Block, k int) ([][]int32, error) {
	if err := validateBatchK(last.NumDst, k); err != nil {
		return nil, err
	}
	pr, err := p.Prepare(last)
	if err != nil {
		return nil, err
	}
	return pr.Partition(k)
}

func validateBatchK(numDst, k int) error {
	if k <= 0 {
		return fmt.Errorf("reg: k must be positive, got %d", k)
	}
	if k > numDst {
		return fmt.Errorf("reg: k=%d exceeds %d output nodes", k, numDst)
	}
	return nil
}

// metisSplit partitions the prepared graph g with the multilevel
// partitioner and converts the per-node part assignment into index groups,
// checking none is empty.
func metisSplit(g *partition.WeightedGraph, m *partition.Metis) *Prepared {
	return &Prepared{numDst: g.N, split: func(k int) ([][]int32, error) {
		parts, err := m.Partition(g, k)
		if err != nil {
			return nil, err
		}
		groups := make([][]int32, k)
		for i, p := range parts {
			groups[p] = append(groups[p], int32(i))
		}
		for p, grp := range groups {
			if len(grp) == 0 {
				return nil, fmt.Errorf("reg: partition produced empty group %d", p)
			}
		}
		return groups, nil
	}}
}

// spread deals the output nodes in order into k equal contiguous runs.
func spread(order []int32) *Prepared {
	n := len(order)
	return &Prepared{numDst: n, split: func(k int) ([][]int32, error) {
		groups := make([][]int32, k)
		for pos, node := range order {
			groups[pos*k/n] = append(groups[pos*k/n], node)
		}
		return groups, nil
	}}
}

// RangeBatch splits output nodes into contiguous local-index ranges.
type RangeBatch struct{}

// Name implements BatchPartitioner.
func (RangeBatch) Name() string { return "range" }

// Prepare implements BatchPartitioner.
func (RangeBatch) Prepare(last *graph.Block) (*Prepared, error) {
	order := make([]int32, last.NumDst)
	for i := range order {
		order[i] = int32(i)
	}
	return spread(order), nil
}

// PartitionBatch implements BatchPartitioner.
func (p RangeBatch) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	return partitionBatch(p, last, k)
}

// RandomBatch splits output nodes into equal-size random groups.
type RandomBatch struct {
	// Seed makes the split reproducible.
	Seed uint64
}

// Name implements BatchPartitioner.
func (RandomBatch) Name() string { return "random" }

// Prepare implements BatchPartitioner.
func (p RandomBatch) Prepare(last *graph.Block) (*Prepared, error) {
	return spread(rng.New(p.Seed).Perm(last.NumDst)), nil
}

// PartitionBatch implements BatchPartitioner.
func (p RandomBatch) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	return partitionBatch(p, last, k)
}

// MetisBatch is the redundancy-unaware METIS baseline: it partitions the
// graph induced on output nodes by the *direct* edges of the block (an
// output that is also another output's sampled neighbor), with unit edge
// weights. Unlike Betty it does not see shared-neighbor redundancy.
type MetisBatch struct {
	// Seed drives the multilevel partitioner's randomized phases.
	Seed uint64
}

// Name implements BatchPartitioner.
func (MetisBatch) Name() string { return "metis" }

// Prepare implements BatchPartitioner.
func (p MetisBatch) Prepare(last *graph.Block) (*Prepared, error) {
	var uu, vv []int32
	var ww []float32
	for d := 0; d < last.NumDst; d++ {
		for q := last.Ptr[d]; q < last.Ptr[d+1]; q++ {
			s := last.SrcLocal[q]
			if int(s) < last.NumDst && int(s) != d { // edge between two outputs
				uu = append(uu, s)
				vv = append(vv, int32(d))
				ww = append(ww, 1)
			}
		}
	}
	g, err := partition.NewWeightedGraph(last.NumDst, uu, vv, ww, nil)
	if err != nil {
		return nil, err
	}
	return metisSplit(g, &partition.Metis{Seed: p.Seed}), nil
}

// PartitionBatch implements BatchPartitioner.
func (p MetisBatch) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	return partitionBatch(p, last, k)
}

// BettyBatch is the paper's REG partitioning (Algorithm 1): build the
// redundancy-embedded graph and min-cut partition it with the multilevel
// partitioner, so output nodes sharing many neighbors stay together.
//
// It uses the row-wise REG construction, BuildREGFast, which the tests hold
// bitwise equal to an Algorithm-1-literal sparse-product oracle (BuildREG,
// oracle_test.go) and to a brute-force shared-neighbor count.
type BettyBatch struct {
	// Seed drives the multilevel partitioner's randomized phases.
	Seed uint64
	// Obs, when non-nil, receives one PhaseRegBuild span and one
	// plan.reg_builds count per REG construction. Timing comes from the
	// registry's injected Clock — this kernel package never reads a clock
	// itself (bettyvet dettaint).
	Obs *obs.Registry
}

// Name implements BatchPartitioner.
func (BettyBatch) Name() string { return "betty" }

// Prepare implements BatchPartitioner: it builds the batch's REG.
func (p BettyBatch) Prepare(last *graph.Block) (*Prepared, error) {
	sp := p.Obs.StartSpan(obs.PhaseRegBuild).
		SetInt("outputs", int64(last.NumDst)).
		SetInt("edges", int64(last.NumEdges()))
	g, err := BuildREGFast(last)
	sp.End()
	p.Obs.Add("plan.reg_builds", 1)
	if err != nil {
		return nil, err
	}
	return metisSplit(g, &partition.Metis{Seed: p.Seed}), nil
}

// PartitionBatch implements BatchPartitioner.
func (p BettyBatch) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	return partitionBatch(p, last, k)
}
