package kernel

import "betty/internal/tensor"

type holder struct {
	scratch *tensor.Tensor
	tape    *tensor.Tape
	weights []float32
}

func leakField(tp *tensor.Tape, h *holder) {
	h.scratch = tp.Alloc(2, 2) // want pooldisc
}

func leakAlias(tp *tensor.Tape, h *holder) {
	buf := tp.Alloc(2, 2)
	h.scratch = buf // want pooldisc
}

func leakReturn(tp *tensor.Tape) *tensor.Tensor {
	buf := tp.Alloc(4, 4)
	return buf // want pooldisc
}

func missingRelease() int {
	tp := tensor.NewTape() // want pooldisc
	return tp.Alloc(1, 1).RowsN
}

func okReleased() {
	tp := tensor.NewTape()
	defer tp.Release()
	buf := tp.Alloc(2, 2)
	buf.Data[0] = 1
}

func okTransferField(h *holder) {
	tp := tensor.NewTape()
	h.tape = tp
}

func okTransferReturn() *tensor.Tape {
	tp := tensor.NewTape()
	return tp
}

func okAnnotated(tp *tensor.Tape) *tensor.Tensor {
	//bettyvet:ok pooldisc fixture tensor outlives no Release in this contrived example // want-sup+1 pooldisc
	return tp.Alloc(3, 3)
}

func leakScratch() float32 {
	s := tensor.AcquireScratch(8) // want pooldisc
	return s[0]
}

func okScratchReleased() float32 {
	s := tensor.AcquireScratch(8)
	defer tensor.ReleaseScratch(s)
	return s[0]
}

func okScratchTransferField(h *holder) {
	s := tensor.AcquireScratch(8)
	h.weights = s // install pattern: h's uninstall releases it later
}

func okScratchTransferReturn() []float32 {
	s := tensor.AcquireScratch(8)
	return s
}
