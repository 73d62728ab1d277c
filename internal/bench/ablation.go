package bench

import (
	"errors"

	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/partition"
	"betty/internal/reg"
)

// The ablation experiments isolate the design choices DESIGN.md calls out:
// the REG objective itself, the multilevel partitioner's refinement and
// matching phases, and the memory-aware planner versus fixed partition
// counts.

func init() {
	register(&Experiment{
		ID:    "abl-reg",
		Paper: "Ablation: REG shared-neighbor weights vs direct-edge (redundancy-unaware) partitioning — input redundancy",
		Run:   runAblREG,
	})
	register(&Experiment{
		ID:    "abl-fm",
		Paper: "Ablation: multilevel partitioner with and without FM boundary refinement — REG edge cut and resulting redundancy",
		Run:   runAblFM,
	})
	register(&Experiment{
		ID:    "abl-match",
		Paper: "Ablation: heavy-edge matching vs random matching during coarsening — REG edge cut",
		Run:   runAblMatch,
	})
	register(&Experiment{
		ID:    "abl-planner",
		Paper: "Ablation: memory-aware planner vs fixed partition counts — chosen K, attempts, and capacity fit",
		Run:   runAblPlanner,
	})
}

// ablBatch samples the shared ablation workload: a 2-layer batch over
// ogbn-products with scaled fanouts.
func ablBatch(o Options) ([]*graph.Block, error) {
	ds, err := loadDataset("ogbn-products", o.scale(0.5))
	if err != nil {
		return nil, err
	}
	return fullBatch(ds, []int{3, 8}, 1)
}

// batchSplitter is the part of reg.BatchPartitioner redundancyOf calls; the
// ablation variants below implement only it.
type batchSplitter interface {
	PartitionBatch(last *graph.Block, k int) ([][]int32, error)
}

// redundancyOf partitions the batch with p into k groups and measures the
// duplicated input nodes.
func redundancyOf(blocks []*graph.Block, p batchSplitter, k int) (int, error) {
	groups, err := p.PartitionBatch(blocks[len(blocks)-1], k)
	if err != nil {
		return 0, err
	}
	micro := make([][]*graph.Block, 0, k)
	for _, sel := range groups {
		mb, err := graph.SliceBatch(blocks, sel)
		if err != nil {
			return 0, err
		}
		micro = append(micro, mb)
	}
	return graph.InputRedundancy(blocks, micro), nil
}

func runAblREG(o Options) ([]*Table, error) {
	blocks, err := ablBatch(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-reg",
		Title:   "REG (betty) vs direct-edge metis vs random: input redundancy",
		Columns: []string{"batches", "algorithm", "input redundancy"},
	}
	for _, k := range []int{4, 16, 64} {
		for _, p := range []reg.BatchPartitioner{
			reg.RandomBatch{Seed: 2},
			reg.MetisBatch{Seed: 2},
			reg.BettyBatch{Seed: 2},
		} {
			red, err := redundancyOf(blocks, p, k)
			if err != nil {
				return nil, err
			}
			o.logf("abl-reg k=%d %s red=%d", k, p.Name(), red)
			t.AddRow(fmtI(k), p.Name(), fmtI(red))
		}
	}
	return []*Table{t}, nil
}

// fmVariant is BettyBatch with partitioner knobs exposed for ablation.
type fmVariant struct {
	seed              uint64
	disableRefinement bool
	randomMatching    bool
	name              string
}

func (v fmVariant) Name() string { return v.name }

func (v fmVariant) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	g, err := reg.BuildREGFast(last)
	if err != nil {
		return nil, err
	}
	m := &partition.Metis{
		Seed:              v.seed,
		DisableRefinement: v.disableRefinement,
		RandomMatching:    v.randomMatching,
	}
	parts, err := m.Partition(g, k)
	if err != nil {
		return nil, err
	}
	groups := make([][]int32, k)
	for i, p := range parts {
		groups[p] = append(groups[p], int32(i))
	}
	return groups, nil
}

// regCut measures the REG edge cut a variant achieves.
func regCut(blocks []*graph.Block, v fmVariant, k int) (float64, error) {
	last := blocks[len(blocks)-1]
	g, err := reg.BuildREGFast(last)
	if err != nil {
		return 0, err
	}
	groups, err := v.PartitionBatch(last, k)
	if err != nil {
		return 0, err
	}
	parts := make([]int32, last.NumDst)
	for pi, grp := range groups {
		for _, d := range grp {
			parts[d] = int32(pi)
		}
	}
	return partition.EdgeCut(g, parts), nil
}

func runAblFM(o Options) ([]*Table, error) {
	blocks, err := ablBatch(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-fm",
		Title:   "FM refinement on/off: REG edge cut and input redundancy",
		Columns: []string{"batches", "refinement", "REG edge cut", "input redundancy"},
	}
	for _, k := range []int{4, 16, 64} {
		for _, refine := range []bool{true, false} {
			v := fmVariant{seed: 3, disableRefinement: !refine, name: "betty"}
			cut, err := regCut(blocks, v, k)
			if err != nil {
				return nil, err
			}
			red, err := redundancyOf(blocks, v, k)
			if err != nil {
				return nil, err
			}
			label := "on"
			if !refine {
				label = "off"
			}
			o.logf("abl-fm k=%d refine=%s cut=%.0f red=%d", k, label, cut, red)
			t.AddRow(fmtI(k), label, fmtF(cut, 0), fmtI(red))
		}
	}
	return []*Table{t}, nil
}

func runAblMatch(o Options) ([]*Table, error) {
	blocks, err := ablBatch(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-match",
		Title:   "coarsening matcher: heavy-edge vs random matching, REG edge cut",
		Columns: []string{"batches", "matcher", "REG edge cut"},
	}
	for _, k := range []int{4, 16, 64} {
		for _, randomMatch := range []bool{false, true} {
			v := fmVariant{seed: 4, randomMatching: randomMatch, name: "betty"}
			cut, err := regCut(blocks, v, k)
			if err != nil {
				return nil, err
			}
			label := "heavy-edge"
			if randomMatch {
				label = "random"
			}
			t.AddRow(fmtI(k), label, fmtF(cut, 0))
		}
	}
	return []*Table{t}, nil
}

func runAblPlanner(o Options) ([]*Table, error) {
	ds, err := loadDataset("ogbn-products", o.scale(0.5))
	if err != nil {
		return nil, err
	}
	spec, err := sageSpec(ds, 2, 128, nn.Mean)
	if err != nil {
		return nil, err
	}
	blocks, err := fullBatch(ds, []int{3, 8}, 1)
	if err != nil {
		return nil, err
	}
	full, err := memory.Estimate(blocks, spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-planner",
		Title:   "memory-aware planner vs fixed K under shrinking capacity",
		Columns: []string{"capacity/MiB", "planner K", "attempts", "max micro peak/MiB", "fixed K=4 fits", "fixed K=16 fits"},
	}
	for _, frac := range []float64{0.75, 0.5, 0.25, 0.1} {
		capacity := int64(float64(full.Peak()) * frac)
		pl := &memory.Planner{Capacity: capacity, Partitioner: reg.BettyBatch{Seed: 5}, Spec: spec}
		plan, err := pl.Plan(blocks)
		if errors.Is(err, memory.ErrCannotFit) {
			// at very small scales the fixed model state alone exceeds the
			// capacity fraction; record the row rather than fail
			t.AddRow(fmtMiB(capacity), "-", "-", "-", "no", "no")
			continue
		}
		if err != nil {
			return nil, err
		}
		fits := func(k int) string {
			p, err := pl.EvaluateFixedK(blocks, k)
			if err != nil {
				return "err"
			}
			if p.MaxPeak <= capacity {
				return "yes"
			}
			return "no"
		}
		o.logf("abl-planner cap=%s K=%d attempts=%d", fmtMiB(capacity), plan.K, plan.Attempts)
		t.AddRow(fmtMiB(capacity), fmtI(plan.K), fmtI(plan.Attempts), fmtMiB(plan.MaxPeak), fits(4), fits(16))
	}
	return []*Table{t}, nil
}
