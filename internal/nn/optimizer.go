package nn

import (
	"math"

	"betty/internal/tensor"
)

// Optimizer updates a module's parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (call ZeroGrad
	// after, or rely on the trainer to do so).
	Step()
	// StateSize returns the number of float32 optimizer-state values per
	// model parameter value (2 for Adam) — component (8)
	// of the paper's memory estimator.
	StateSize() int
	// Name identifies the optimizer in experiment output.
	Name() string
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction — the
// optimizer whose two state tensors per parameter the paper's estimator
// counts as component (8).
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	params                []*tensor.Var
	m, v                  []*tensor.Tensor
	t                     int
}

// NewAdam returns an Adam optimizer with the usual defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(mod Module, lr float32) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: mod.Params()}
	a.m = make([]*tensor.Tensor, len(a.params))
	a.v = make([]*tensor.Tensor, len(a.params))
	for i, p := range a.params {
		a.m[i] = tensor.New(p.Value.Rows(), p.Value.Cols())
		a.v[i] = tensor.New(p.Value.Rows(), p.Value.Cols())
	}
	return a
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// StateSize implements Optimizer.
func (a *Adam) StateSize() int { return 2 }

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			p.Value.Data[j] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
	}
}
