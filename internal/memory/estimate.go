// Package memory implements Betty's analytical memory model (§4.4.3,
// Table 3, Equation 5) and the memory-aware re-partitioning planner built
// on it: estimate each micro-batch's device footprint without executing it,
// and increase the partition count until the largest micro-batch fits the
// device capacity.
package memory

import (
	"fmt"

	"betty/internal/device"
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
	// value (Adam: 2; 0 for a forward-only spec).
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
	// unrounded marks the planner's ideal breakdowns, whose peaks sum the
	// charges without allocator rounding (see Planner.lowerBoundK).
	unrounded bool
}

// Charge is one buffer put on a device ledger.
type Charge struct {
	Bytes int64
	Label string
}

// Charges lists the buffers a training step over b puts on a device, in
// the runner's allocation order: the model state, resident all run, then
// the batch's host-to-device copies and the activations its forward and
// loss materialize. All seven are live once the activations are charged.
func (b Breakdown) Charges() [7]Charge {
	return [7]Charge{
		{b.Params, "parameters"},
		{b.Gradients, "gradients"},
		{b.OptStates, "optimizer-states"},
		{b.InputFeatures, "input-features"},
		{b.Labels, "labels"},
		{b.Blocks, "blocks"},
		{b.Hidden + b.Aggregator + BytesPerValue, "activations"}, // + the loss value
	}
}

// Peak returns the device peak of a training step over b: every charge,
// rounded as the allocator rounds it.
func (b Breakdown) Peak() int64 {
	c := b.Charges()
	return b.sum(c[:]...)
}

// ForwardPeak returns the device peak of a forward-only pass over b — the
// inference-serving budget: the parameters, input features, blocks and
// activations charges, without the loss value.
func (b Breakdown) ForwardPeak() int64 {
	c := b.Charges()
	c[6].Bytes -= BytesPerValue
	return b.sum(c[0], c[3], c[5], c[6])
}

// sum adds up charges as the device ledger rounds them.
func (b Breakdown) sum(cs ...Charge) (n int64) {
	for _, c := range cs {
		if b.unrounded {
			n += c.Bytes
		} else {
			n += device.RoundAlloc(c.Bytes)
		}
	}
	return n
}

// ideal returns the breakdown of a hypothetical micro-batch holding exactly
// 1/k of b's batch-dependent components (rounded down) beside the whole
// model state — what a K-way split free of redundancy and imbalance would
// cost, and so, with its peaks unrounded, a floor under any real one
// (Planner.lowerBoundK).
func (b Breakdown) ideal(k int64) Breakdown {
	b.InputFeatures /= k
	b.Labels /= k
	b.Blocks /= k
	b.Hidden /= k
	b.Aggregator /= k
	b.unrounded = true
	return b
}

// modelState is the resident part of a breakdown: params parameter values,
// one gradient each, and statePerParam optimizer values each.
func modelState(params int64, statePerParam int) Breakdown {
	return Breakdown{
		Params:    params * BytesPerValue,
		Gradients: params * BytesPerValue,
		OptStates: params * int64(statePerParam) * BytesPerValue,
	}
}

// AllocResident allocates a model's persistent state on dev — the first
// three charges: parameters, gradients and optimizer states, which live
// across batches. A nil optimizer means forward-only: the parameters
// alone. On error nothing stays allocated.
func AllocResident(dev *device.Device, m nn.Module, opt nn.Optimizer) ([]*device.Buffer, error) {
	c, n := modelState(int64(nn.ParamCount(m)), 0).Charges(), 1
	if opt != nil {
		c, n = modelState(int64(nn.ParamCount(m)), opt.StateSize()).Charges(), 3
	}
	return Alloc(dev, nil, c[:n]...)
}

// BatchCharges lists a batch's last four charges: the host-to-device copies
// — featDim values per input node, one label per output and (src id, dst
// id, weight) per edge; their sum is the batch's H2DBytes — then the given
// activations. blocks must be non-empty. It allocates nothing, since every
// training step calls it.
func BatchCharges(blocks []*graph.Block, featDim int, activations int64) [4]Charge {
	var edges int64
	for _, b := range blocks {
		edges += int64(b.NumEdges())
	}
	c := Breakdown{
		InputFeatures: int64(blocks[0].NumSrc) * int64(featDim) * BytesPerValue,
		Labels:        int64(blocks[len(blocks)-1].NumDst) * BytesPerValue,
		Blocks:        edges * 3 * BytesPerValue,
	}.Charges()
	c[6].Bytes = activations
	return [4]Charge(c[3:])
}

// Alloc charges cs to dev in order, skipping empty ones, and returns live
// with the new buffers appended. On OOM it frees every buffer in live and
// the ones it allocated, and returns the error unchanged.
func Alloc(dev *device.Device, live []*device.Buffer, cs ...Charge) ([]*device.Buffer, error) {
	for _, c := range cs {
		if c.Bytes == 0 {
			continue
		}
		buf, err := dev.Alloc(c.Bytes, c.Label)
		if err != nil {
			Free(dev, live)
			return nil, err
		}
		live = append(live, buf)
	}
	return live, nil
}

// Free releases bufs on dev (nothing when bufs is empty, so a nil device
// with no buffers is fine).
func Free(dev *device.Device, bufs []*device.Buffer) {
	for _, b := range bufs {
		dev.Free(b)
	}
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
	b := modelState(int64(spec.ParamsGNN+spec.ParamsAgg), spec.OptStatePerParam)
	in := BatchCharges(blocks, spec.Model.InDim, 0)
	b.InputFeatures, b.Labels, b.Blocks = in[0].Bytes, in[1].Bytes, in[2].Bytes

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
