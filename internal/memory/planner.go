package memory

import (
	"errors"
	"fmt"

	"betty/internal/graph"
	"betty/internal/obs"
	"betty/internal/reg"
)

// ErrCannotFit is returned when no partition count up to MaxK brings the
// largest micro-batch under the capacity.
var ErrCannotFit = errors.New("memory: batch cannot fit capacity at any partition count")

// Planner implements the memory-aware batch re-partitioning loop of
// §4.4.3: K-way partition the batch, estimate every micro-batch, and try
// (K+1)-way if the largest estimate violates the capacity constraint. The
// loop is entered at a proved lower bound on K (lowerBoundK), and the
// partitioner's K-independent work — Betty's REG — is done once per batch.
type Planner struct {
	// Capacity is the device memory budget in bytes.
	Capacity int64
	// Partitioner splits the batch's output nodes (Betty's REG
	// partitioning in the paper, but any BatchPartitioner works).
	Partitioner reg.BatchPartitioner
	// Spec is the model description for estimation.
	Spec Spec
	// MaxK caps the search (default: number of output nodes).
	MaxK int
	// SafetyMargin inflates estimates by this fraction to absorb
	// estimation error (§6.7 discusses folding the error into planning);
	// 0 means no margin.
	SafetyMargin float64
	// Obs, when non-nil, receives partition/estimate spans per evaluated K
	// plus planning metrics (plan.attempts, plan.repartitions, plan.k,
	// plan.lower_bound_k).
	Obs *obs.Registry
	// Peak selects which breakdown component sum is compared against the
	// capacity; nil means Breakdown.Peak (training: forward + backward).
	// The serving planner sets Breakdown.ForwardPeak, since inference
	// materializes no gradients or optimizer states. lowerBoundK needs Peak
	// convex and non-decreasing in every component: Peak, ForwardPeak and
	// any non-negative weighted sum of components are.
	Peak func(Breakdown) int64
	// Split, when non-nil, plans split-parallel execution: the capacity
	// bounds every shard of a micro-batch instead of the micro-batch.
	Split *Split
}

// Split describes GSplit-style split-parallel execution: each micro-batch
// is cut into min(Devices, outputs) shards, one per device, and every
// device holds its shard beside a full replica of the model state.
type Split struct {
	Devices int
	// Partitioner cuts a micro-batch's outputs into shards; nil uses the
	// planner's Partitioner.
	Partitioner reg.BatchPartitioner
}

// peakOf applies the configured peak function (default Breakdown.Peak).
func (pl *Planner) peakOf(b Breakdown) int64 {
	if pl.Peak != nil {
		return pl.Peak(b)
	}
	return b.Peak()
}

// fits applies the capacity constraint, safety margin included, to a peak.
func (pl *Planner) fits(peak int64) bool {
	return peak+int64(float64(peak)*pl.SafetyMargin) <= pl.Capacity
}

// Plan is the planner's result: the chosen partition count, the output
// groups, the sliced micro-batches, and their estimates.
type Plan struct {
	K         int
	Groups    [][]int32
	Micro     [][]*graph.Block
	Estimates []Breakdown
	// Shards holds, under a Split, each micro-batch's shards in device
	// order; a micro-batch cut into one shard is its own shard.
	Shards [][][]*graph.Block
	// MaxPeak is the largest estimated micro-batch peak in bytes — under a
	// Split, the largest shard peak.
	MaxPeak int64
	// Attempts is how many partition counts were evaluated: K-LowerBound+1
	// for a searched plan, 1 for a fixed K.
	Attempts int
	// LowerBound is the partition count the search started from, every
	// smaller one being proved not to fit (0 for a fixed K).
	LowerBound int
}

// Redundancy returns the duplicated input nodes versus the full batch.
func (p *Plan) Redundancy(full []*graph.Block) int {
	return graph.InputRedundancy(full, p.Micro)
}

// Plan searches for the smallest K whose largest estimated micro-batch fits
// the capacity: it evaluates lowerBoundK, lowerBoundK+1, ... and returns the
// first fit, which is what the walk from K = 1 returns.
func (pl *Planner) Plan(full []*graph.Block) (*Plan, error) {
	if pl.Partitioner == nil {
		return nil, fmt.Errorf("memory: planner needs a partitioner")
	}
	if pl.Capacity <= 0 {
		return nil, fmt.Errorf("memory: capacity must be positive")
	}
	if len(full) == 0 {
		return nil, fmt.Errorf("memory: empty batch")
	}
	last := full[len(full)-1]
	maxK := pl.MaxK
	if maxK <= 0 || maxK > last.NumDst {
		maxK = last.NumDst
	}
	bound, err := pl.lowerBoundK(full, maxK)
	if err != nil {
		return nil, err
	}
	pl.Obs.Set("plan.lower_bound_k", int64(bound))
	var prep *reg.Prepared // built at the first k > 1, shared by every later k
	for k := bound; k <= maxK; k++ {
		pl.Obs.Add("plan.attempts", 1)
		if k > 1 && prep == nil {
			if prep, err = pl.Partitioner.Prepare(last); err != nil {
				return nil, fmt.Errorf("memory: preparing the partitioner: %w", err)
			}
		}
		plan, err := pl.evaluate(full, k, prep)
		if err != nil {
			return nil, err
		}
		plan.Attempts, plan.LowerBound = k-bound+1, bound
		if pl.fits(plan.MaxPeak) {
			pl.Obs.Add("plan.repartitions", int64(k-bound))
			pl.Obs.Set("plan.k", int64(plan.K))
			pl.Obs.Set("plan.max_peak_bytes", plan.MaxPeak)
			return plan, nil
		}
	}
	if bound > maxK {
		return nil, fmt.Errorf("%w: capacity %d bytes needs K >= %d, MaxK is %d, tried none",
			ErrCannotFit, pl.Capacity, bound, maxK)
	}
	return nil, fmt.Errorf("%w: capacity %d bytes, tried K=%d..%d (no smaller K can fit)",
		ErrCannotFit, pl.Capacity, bound, maxK)
}

// lowerBoundK returns the smallest K in [1, maxK+1] the argument below does
// not rule out; every smaller K is proved not to fit, so the search skips it.
//
// Proof. Every batch-dependent Breakdown component is a non-negative linear
// function of the per-block (dst, src, edge) counts — the LSTM degree-bucket
// term, which is not, is left out, which only lowers the bound — and in a
// covered batch every dst, src and edge lands in at least one of the K
// micro-batches, so the componentwise mean of their K estimates is at least
// ideal(K): the full batch's estimate with those components divided by K
// and the model state (params, gradients, optimizer) whole. For a convex,
// non-decreasing peak functional, max_i peak_i >= mean_i peak_i >=
// peak(mean) >= peak(ideal(K)) by Jensen and monotonicity; if that does
// not fit, neither does the largest micro-batch of any K-way split. Under
// a Split the shards are at most K·D slices of the batch that still cover
// it, so the same argument bounds the largest shard by ideal(K·D).
func (pl *Planner) lowerBoundK(full []*graph.Block, maxK int) (int, error) {
	whole, err := estimate(full, pl.Spec, false)
	if err != nil {
		return 0, err
	}
	k, d := 1, 1
	if pl.Split != nil {
		d = max(1, pl.Split.Devices)
	}
	for k <= maxK && !pl.fits(pl.peakOf(whole.ideal(int64(k*d)))) {
		k++
	}
	if k > 1 && !graph.Covered(full) {
		return 1, nil // the counts argument needs a covered batch
	}
	return k, nil
}

// evaluate partitions into exactly k micro-batches and estimates each. prep
// is the partitioner's prepared batch; k = 1 needs none.
func (pl *Planner) evaluate(full []*graph.Block, k int, prep *reg.Prepared) (*Plan, error) {
	last := full[len(full)-1]
	groups, err := pl.partitionGroups(last, k, prep)
	if err != nil {
		return nil, err
	}
	plan := &Plan{K: k, Groups: groups}
	// The estimate span covers slicing plus estimation of all K
	// micro-batches — the full cost of evaluating one candidate K.
	esp := pl.Obs.StartSpan(obs.PhaseEstimate).SetInt("k", int64(k))
	defer esp.End()
	// On a covered batch the one all-selecting slice of K = 1 would only
	// relabel the sources of full — same counts, degrees and estimate, and
	// by per-row stability (DESIGN.md §11) the same output bits — so the
	// micro-batch is full itself.
	whole := k == 1 && graph.Covered(full)
	for gi, sel := range groups {
		micro := full
		if !whole {
			if micro, err = graph.SliceBatch(full, sel); err != nil {
				return nil, fmt.Errorf("memory: slicing group %d: %w", gi, err)
			}
		}
		est, err := Estimate(micro, pl.Spec)
		if err != nil {
			return nil, err
		}
		plan.Micro = append(plan.Micro, micro)
		plan.Estimates = append(plan.Estimates, est)
		peak := pl.peakOf(est)
		if pl.Split != nil {
			shards, err := pl.shard(micro, gi)
			if err != nil {
				return nil, err
			}
			plan.Shards = append(plan.Shards, shards)
			peak = 0
			for _, shard := range shards {
				se, err := Estimate(shard, pl.Spec)
				if err != nil {
					return nil, err
				}
				peak = max(peak, pl.peakOf(se))
			}
		}
		plan.MaxPeak = max(plan.MaxPeak, peak)
	}
	esp.SetInt("max_peak_bytes", plan.MaxPeak)
	return plan, nil
}

// shard cuts micro-batch mi's outputs into min(Split.Devices, outputs)
// groups and slices one shard per group. A single shard (one device, or a
// micro-batch with one output) is the micro-batch itself, so a one-device
// split plans and charges exactly what single-device training does.
// Partitioners that cannot produce the requested group count on a tiny REG
// (an empty part) fall back to range splitting, counted in
// multidev.shard_fallbacks.
func (pl *Planner) shard(micro []*graph.Block, mi int) ([][]*graph.Block, error) {
	last := micro[len(micro)-1]
	n := min(pl.Split.Devices, last.NumDst)
	if n <= 1 {
		return [][]*graph.Block{micro}, nil
	}
	part := pl.Split.Partitioner
	if part == nil {
		part = pl.Partitioner
	}
	groups, err := part.PartitionBatch(last, n)
	if err != nil {
		pl.Obs.Add("multidev.shard_fallbacks", 1)
		if groups, err = (reg.RangeBatch{}).PartitionBatch(last, n); err != nil {
			return nil, fmt.Errorf("memory: sharding micro-batch %d: %w", mi, err)
		}
	}
	shards := make([][]*graph.Block, len(groups))
	for g, sel := range groups {
		if shards[g], err = graph.SliceBatch(micro, sel); err != nil {
			return nil, fmt.Errorf("memory: slicing shard %d of micro-batch %d: %w", g, mi, err)
		}
	}
	return shards, nil
}

// partitionGroups splits the last block's outputs into k groups under a
// PhasePartition span (K = 1 needs no partitioner: one group of all).
func (pl *Planner) partitionGroups(last *graph.Block, k int, prep *reg.Prepared) ([][]int32, error) {
	if k == 1 {
		all := make([]int32, last.NumDst)
		for i := range all {
			all[i] = int32(i)
		}
		return [][]int32{all}, nil
	}
	sp := pl.Obs.StartSpan(obs.PhasePartition).
		SetInt("k", int64(k)).
		SetInt("outputs", int64(last.NumDst))
	defer sp.End()
	groups, err := prep.Partition(k)
	if err != nil {
		return nil, fmt.Errorf("memory: partitioning K=%d: %w", k, err)
	}
	return groups, nil
}

// EvaluateFixedK returns the plan for an explicit partition count without
// searching — used by experiments that sweep K directly.
func (pl *Planner) EvaluateFixedK(full []*graph.Block, k int) (*Plan, error) {
	if pl.Partitioner == nil {
		return nil, fmt.Errorf("memory: planner needs a partitioner")
	}
	if len(full) == 0 {
		return nil, fmt.Errorf("memory: empty batch")
	}
	pl.Obs.Add("plan.attempts", 1)
	var prep *reg.Prepared
	if k > 1 {
		var err error
		if prep, err = pl.Partitioner.Prepare(full[len(full)-1]); err != nil {
			return nil, fmt.Errorf("memory: preparing the partitioner: %w", err)
		}
	}
	plan, err := pl.evaluate(full, k, prep)
	if err != nil {
		return nil, err
	}
	plan.Attempts = 1
	pl.Obs.Set("plan.k", int64(plan.K))
	pl.Obs.Set("plan.max_peak_bytes", plan.MaxPeak)
	return plan, nil
}
