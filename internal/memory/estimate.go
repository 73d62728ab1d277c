// Package memory implements Betty's analytical memory model (§4.4.3,
// Table 3, Equation 5) and the memory-aware re-partitioning planner built
// on it: estimate each micro-batch's device footprint without executing it,
// and increase the partition count until the largest micro-batch fits the
// device capacity.
package memory

import (
	"fmt"

	"betty/internal/graph"
	"betty/internal/nn"
)

// BytesPerValue is the size of one tensor element (float32) and of one
// node/edge index (int32).
const BytesPerValue = 4

// LSTMIntermediatesPerValue is the Equation 5 constant: the number of
// intermediate values the framework materializes per LSTM input element.
// The paper measures 18 for PyTorch and notes it is implementation-
// dependent; for this repository's autograd tape each LSTM timestep
// materializes the input gather (1), the two gate matmuls, their sum, and
// the bias add (4 x 4 = 16), the four gate slices and activations (8), the
// cell-state products and sum (3), and the output tanh and product (2),
// for 30 values per input element.
const LSTMIntermediatesPerValue = 30

// Spec describes the trained model for estimation purposes: the
// architecture plus the parameter counts of Table 3.
type Spec struct {
	// Model is the GNN architecture (dims, layers, aggregator, heads).
	Model nn.Config
	// ParamsGNN is NP_GNN: parameter values excluding the aggregator.
	ParamsGNN int
	// ParamsAgg is NP_Agg: aggregator-only parameter values.
	ParamsAgg int
	// OptStatePerParam is the optimizer-state values kept per parameter
	// value (Adam: 2, momentum SGD: 1, plain SGD: 0).
	OptStatePerParam int
	// IsGAT marks attention models, whose aggregator working set differs.
	IsGAT bool
	// IsGCN marks normalized-sum convolution models.
	IsGCN bool
}

// Model is what the estimator reads off a constructed model; GraphSAGE,
// GCN and GAT all satisfy it.
type Model interface {
	nn.Module
	Config() nn.Config
	// AggParamCount counts the aggregator-only parameter values (NP_Agg).
	AggParamCount() int
}

// SpecOf derives a Spec from a constructed model and its optimizer. A nil
// optimizer means forward-only: the estimate carries no optimizer-state
// term.
func SpecOf(m Model, opt nn.Optimizer) Spec {
	agg := m.AggParamCount()
	s := Spec{Model: m.Config(), ParamsGNN: nn.ParamCount(m) - agg, ParamsAgg: agg}
	if opt != nil {
		s.OptStatePerParam = opt.StateSize()
	}
	_, s.IsGAT = m.(*nn.GAT)
	_, s.IsGCN = m.(*nn.GCN)
	return s
}

// SpecForInference derives a forward-only Spec from a constructed model of
// any supported architecture. Combine with Planner.Peak =
// Breakdown.ForwardPeak so the serving planner budgets only what a forward
// pass materializes.
func SpecForInference(model any) (Spec, error) {
	m, ok := model.(Model)
	if !ok {
		return Spec{}, fmt.Errorf("memory: no inference spec for model %T", model)
	}
	return SpecOf(m, nil), nil
}

// Breakdown itemizes the estimated device bytes of one (micro-)batch,
// following the eight components of §4.4.3.
type Breakdown struct {
	Params        int64 // (1) model parameters, incl. aggregator
	InputFeatures int64 // (2) N_in x H_in
	Labels        int64 // (3) N_out
	Blocks        int64 // (4) sum over blocks of E x 3
	Hidden        int64 // (5) per-layer destination outputs
	Aggregator    int64 // (6) aggregator working set (Eq. 5 for LSTM)
	Gradients     int64 // (7) one gradient value per parameter
	OptStates     int64 // (8) optimizer states
}

// Peak returns the estimated peak bytes: the aggregator working set (live
// during forward) and the gradients (live during backward) do not coexist
// at full size, so the peak is the stable tensors plus max of the two.
func (b Breakdown) Peak() int64 {
	transient := b.Aggregator
	if b.Gradients > transient {
		transient = b.Gradients
	}
	return b.stable() + transient
}

// ForwardPeak returns the estimated peak bytes of a forward-only pass —
// the inference-serving budget. No gradients or optimizer states exist,
// and labels are never gathered; what remains is the parameters, the
// staged inputs and blocks, the per-layer outputs, and the aggregator
// working set.
func (b Breakdown) ForwardPeak() int64 {
	return b.Params + b.InputFeatures + b.Blocks + b.Hidden + b.Aggregator
}

// Total returns the sum of all components (an upper bound the paper's
// Figure 3 style accounting uses for the full pie).
func (b Breakdown) Total() int64 {
	return b.stable() + b.Aggregator + b.Gradients
}

func (b Breakdown) stable() int64 {
	return b.Params + b.InputFeatures + b.Labels + b.Blocks + b.Hidden + b.OptStates
}

// String renders the breakdown in MiB for logs.
func (b Breakdown) String() string {
	mib := func(v int64) float64 { return float64(v) / (1 << 20) }
	return fmt.Sprintf(
		"params=%.1fMiB input=%.1fMiB labels=%.1fMiB blocks=%.1fMiB hidden=%.1fMiB agg=%.1fMiB grads=%.1fMiB opt=%.1fMiB peak=%.1fMiB",
		mib(b.Params), mib(b.InputFeatures), mib(b.Labels), mib(b.Blocks),
		mib(b.Hidden), mib(b.Aggregator), mib(b.Gradients), mib(b.OptStates), mib(b.Peak()))
}

// ideal returns the breakdown of a hypothetical micro-batch holding exactly
// 1/k of b's batch-dependent components (rounded down) beside the whole
// model state — what a K-way split free of redundancy and imbalance would
// cost, and so a floor under any real one (Planner.lowerBoundK).
func (b Breakdown) ideal(k int64) Breakdown {
	b.InputFeatures /= k
	b.Labels /= k
	b.Blocks /= k
	b.Hidden /= k
	b.Aggregator /= k
	return b
}

// Estimate computes the memory breakdown of a batch (input-first blocks)
// under the model spec, without executing anything.
func Estimate(blocks []*graph.Block, spec Spec) (Breakdown, error) {
	return estimate(blocks, spec, true)
}

// estimate is Estimate; lstmBuckets = false leaves out the LSTM
// degree-bucket term, the one component that is not linear in the block's
// node and edge counts.
func estimate(blocks []*graph.Block, spec Spec, lstmBuckets bool) (Breakdown, error) {
	if len(blocks) == 0 {
		return Breakdown{}, fmt.Errorf("memory: empty batch")
	}
	if len(blocks) != spec.Model.Layers {
		return Breakdown{}, fmt.Errorf("memory: %d blocks for %d model layers", len(blocks), spec.Model.Layers)
	}
	var b Breakdown
	params := int64(spec.ParamsGNN + spec.ParamsAgg)
	b.Params = params * BytesPerValue
	b.Gradients = params * BytesPerValue
	b.OptStates = params * int64(spec.OptStatePerParam) * BytesPerValue

	stats := graph.Stats(blocks)
	b.InputFeatures = int64(stats.NumInput) * int64(spec.Model.InDim) * BytesPerValue
	b.Labels = int64(stats.NumOutput) * BytesPerValue
	// (4): each block edge is stored as (src id, dst id, weight) = 3 values
	b.Blocks = int64(stats.TotalEdges) * 3 * BytesPerValue

	for l, blk := range blocks {
		layerIn, out := spec.Model.LayerDims(l)
		last := l == spec.Model.Layers-1
		heads := spec.Model.Heads
		if heads <= 0 {
			heads = 4
		}
		width := int64(out)
		if spec.IsGAT && !last {
			width = int64(out) * int64(heads)
		}
		// (5): the layer's destination outputs — the paper's N_i x h_i term.
		hidden := int64(blk.NumDst) * width * BytesPerValue
		b.Hidden += hidden

		// (6): the aggregator working set plus the framework intermediates
		// the forward pass materializes. Like the paper's constant 18, the
		// per-operation terms are calibrated to this implementation's
		// autograd tape (see the layer op sequences in package nn).
		n := int64(blk.NumDst)
		s := int64(blk.NumSrc)
		e := int64(blk.NumEdges())
		f := int64(layerIn)
		o := int64(out)
		var act int64 // all forward intermediates of this layer, in values
		if spec.IsGCN {
			// source scaling (S*F), fused neighbor sum with the dst
			// normalization folded in (N*F), self slice + scale (2 N*F),
			// add (N*F), fused linear+bias+ReLU (N*O)
			act = s*f + 4*n*f + n*o
		} else if spec.IsGAT {
			h := int64(heads)
			// per head: projection (S*O), score vectors (2S), per-edge
			// score pipeline (5E), gathered+weighted messages (2*E*O),
			// and the per-destination sum (N*O)
			act = h * (s*o + 2*s + 5*e + 2*e*o + n*o)
			if last {
				// head averaging: H-1 adds plus the final scale
				act += n * o * int64(heads)
			} else {
				// pairwise concatenation of growing head outputs
				act += n * o * (int64(heads)*(int64(heads)+1)/2 - 1)
				// inter-layer ReLU over the concatenated width
				act += n * o * int64(heads)
			}
		} else {
			// shared SAGE pipeline: self slice (N*F), concat (2N*F), fused
			// linear+bias+ReLU (N*O)
			act = 3*n*f + n*o
			switch spec.Model.Aggregator {
			case nn.Mean, nn.Sum:
				// one fused gather+sum(+weight, +degree scale) output
				act += n * f
			case nn.Pool:
				// pre-transform (3S*F), gathered messages (E*F), max (N*F)
				act += 3*s*f + e*f + n*f
			case nn.LSTM:
				// Equation 5 with this implementation's constant, plus the
				// per-bucket scatter/accumulate outputs (2 per non-empty
				// degree bucket, N*F each)
				act += e * f * LSTMIntermediatesPerValue
				if lstmBuckets {
					if nb := int64(nonzeroDegreeBuckets(blk)); nb > 0 {
						act += (2*nb - 1) * n * f
					}
				}
			}
		}
		b.Aggregator += act*BytesPerValue - hidden
	}
	return b, nil
}

// nonzeroDegreeBuckets counts the distinct nonzero in-degrees of a block's
// destinations — the NodeBatch count of the in-degree bucketing scheme.
func nonzeroDegreeBuckets(b *graph.Block) int {
	seen := make(map[int]bool)
	for d := 0; d < b.NumDst; d++ {
		if deg := b.InDegree(d); deg > 0 {
			seen[deg] = true
		}
	}
	return len(seen)
}
