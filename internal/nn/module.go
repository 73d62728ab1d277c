// Package nn implements the GNN models the paper evaluates — GraphSAGE
// with Mean, Sum, Pool, and LSTM aggregators, and GAT with multi-head
// attention — together with the layers they are built from (Linear, LSTM
// cell) and the Adam optimizer. Everything runs on the tensor
// package's autograd tape, so micro-batch gradient accumulation is exact.
package nn

import (
	"fmt"

	"betty/internal/rng"
	"betty/internal/tensor"
)

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the parameter Vars in a stable order.
	Params() []*tensor.Var
}

// ParamCount sums the element counts of a module's parameters.
func ParamCount(m Module) int {
	total := 0
	for _, p := range m.Params() {
		total += p.Value.Len()
	}
	return total
}

// ZeroGrad clears the gradients of every parameter of m.
func ZeroGrad(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// Linear is a dense affine layer: y = xW + b.
type Linear struct {
	W *tensor.Var
	B *tensor.Var
}

// NewLinear returns a Xavier-initialized in x out affine layer.
func NewLinear(in, out int, r *rng.RNG) *Linear {
	w := tensor.New(in, out)
	w.XavierInit(r)
	return &Linear{
		W: tensor.Param(w),
		B: tensor.Param(tensor.New(1, out)),
	}
}

// Params implements Module.
func (l *Linear) Params() []*tensor.Var { return []*tensor.Var{l.W, l.B} }

// Apply computes x @ W + b on the tape.
func (l *Linear) Apply(tp *tensor.Tape, x *tensor.Var) *tensor.Var {
	return tp.AddBias(tp.MatMul(x, l.W), l.B)
}

// InDim returns the input dimension.
func (l *Linear) InDim() int { return l.W.Value.Rows() }

// OutDim returns the output dimension.
func (l *Linear) OutDim() int { return l.W.Value.Cols() }

// LSTMCell is a standard LSTM cell with fused gate weights: the four gates
// (input, forget, cell, output) are computed as x@Wx + h@Wh + b and split.
type LSTMCell struct {
	Hidden int
	Wx     *tensor.Var // in x 4h
	Wh     *tensor.Var // h x 4h
	B      *tensor.Var // 1 x 4h
}

// NewLSTMCell returns an LSTM cell mapping in-dim inputs to hidden-dim
// state.
func NewLSTMCell(in, hidden int, r *rng.RNG) *LSTMCell {
	wx := tensor.New(in, 4*hidden)
	wx.XavierInit(r)
	wh := tensor.New(hidden, 4*hidden)
	wh.XavierInit(r)
	b := tensor.New(1, 4*hidden)
	// forget-gate bias 1.0, the standard trick for gradient flow
	for j := hidden; j < 2*hidden; j++ {
		b.Set(0, j, 1)
	}
	return &LSTMCell{Hidden: hidden, Wx: tensor.Param(wx), Wh: tensor.Param(wh), B: tensor.Param(b)}
}

// Params implements Module.
func (c *LSTMCell) Params() []*tensor.Var { return []*tensor.Var{c.Wx, c.Wh, c.B} }

// Step advances the cell one timestep: given input x (B x in) and previous
// state (h, cst) it returns the next (h, cst), each B x hidden.
func (c *LSTMCell) Step(tp *tensor.Tape, x, h, cst *tensor.Var) (*tensor.Var, *tensor.Var) {
	gates := tp.AddBias(tp.Add(tp.MatMul(x, c.Wx), tp.MatMul(h, c.Wh)), c.B)
	hn := c.Hidden
	i := tp.Sigmoid(tp.SliceCols(gates, 0, hn))
	f := tp.Sigmoid(tp.SliceCols(gates, hn, 2*hn))
	g := tp.Tanh(tp.SliceCols(gates, 2*hn, 3*hn))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*hn, 4*hn))
	cNext := tp.Add(tp.Mul(f, cst), tp.Mul(i, g))
	hNext := tp.Mul(o, tp.Tanh(cNext))
	return hNext, cNext
}

// Aggregator enumerates the neighbor aggregation operators of Table 1.
type Aggregator int

// Aggregator kinds. Mean and Sum are the cheap reductions; Pool applies a
// learned transform before an elementwise max; LSTM runs a recurrent cell
// over the (degree-bucketed) neighbor sequence and is the memory-hungry
// aggregator the paper's Figure 2(a) analyzes.
const (
	Mean Aggregator = iota
	Sum
	Pool
	LSTM
)

// String implements fmt.Stringer.
func (a Aggregator) String() string {
	switch a {
	case Mean:
		return "mean"
	case Sum:
		return "sum"
	case Pool:
		return "pool"
	case LSTM:
		return "lstm"
	default:
		return fmt.Sprintf("aggregator(%d)", int(a))
	}
}

// ParseAggregator converts a name to an Aggregator.
func ParseAggregator(s string) (Aggregator, error) {
	switch s {
	case "mean":
		return Mean, nil
	case "sum":
		return Sum, nil
	case "pool":
		return Pool, nil
	case "lstm":
		return LSTM, nil
	default:
		return 0, fmt.Errorf("nn: unknown aggregator %q", s)
	}
}
