package serve

import (
	"fmt"

	"betty/internal/tensor"
)

// Quantized serving storage (DESIGN.md §13). Two stores exist, both owned
// by the single batch worker:
//
//   - quantStore compresses the model's weight matrices at rest and
//     dequantizes them into pooled f32 scratch (tensor.AcquireScratch)
//     around each batch's forward passes. The exact f32 kernels then run
//     on the round-tripped weights, so quantized serving is exactly
//     "serve the round-tripped model" — nothing about the kernel numerics
//     changes, which is what makes the error bound analyzable: it is the
//     codec's documented round-trip bound propagated through the forward.
//
//   - quantRow compresses one cached feature row. On a cache miss the row
//     is encoded and immediately decoded before staging, so the staged
//     bytes are identical whether the row came from the cache or the host
//     matrix — cache state can never change a prediction, the same
//     invariant the exact path holds.
//
// QuantOff uses neither: New leaves s.quant nil and the cache stores f32
// copies, byte-identical to an unquantized deployment.

// paramModel is the slice of the nn.Module contract the store needs.
type paramModel interface {
	Params() []*tensor.Var
}

// quantStore holds the quantized weight matrices of one model. Between
// batches only the encoded form is resident; install materializes f32
// scratch for the forward, uninstall returns it to the pool.
type quantStore struct {
	mode   tensor.QuantMode
	params []*tensor.Var
	enc    []*tensor.QuantTensor
	// F32Bytes and EncBytes compare the resident weight footprints: what
	// the quantized matrices would occupy as f32 versus what they do
	// occupy encoded (biases and unshrinkable params stay f32 and appear
	// in neither).
	F32Bytes int64
	EncBytes int64

	installed bool
}

// newQuantStore encodes the model's weight matrices under mode and steals
// their f32 storage. QuantOff returns (nil, nil): the model is left
// untouched and serving stays exact. A parameter is quantized only when it
// is a matrix (more than one row — biases stay f32; their error would be
// fully visible in every output for a negligible size win) and the encoded
// form is strictly smaller than f32 (int8's per-row scales can make very
// narrow matrices grow instead).
func newQuantStore(model any, mode tensor.QuantMode) (*quantStore, error) {
	if mode == tensor.QuantOff {
		return nil, nil
	}
	pm, ok := model.(paramModel)
	if !ok {
		return nil, fmt.Errorf("serve: model %T has no parameters to quantize", model)
	}
	st := &quantStore{mode: mode}
	for _, p := range pm.Params() {
		if p.Value.Rows() <= 1 {
			continue
		}
		q := tensor.Quantize(p.Value, mode)
		f32 := int64(p.Value.Len()) * 4
		if q.Bytes() >= f32 {
			continue
		}
		st.params = append(st.params, p)
		st.enc = append(st.enc, q)
		st.F32Bytes += f32
		st.EncBytes += q.Bytes()
		p.Value.Data = nil // encoded form is now the only resident copy
	}
	if len(st.params) == 0 {
		return nil, fmt.Errorf("serve: %v quantization shrank no parameter of %T", mode, model)
	}
	return st, nil
}

// install dequantizes every stored matrix into pooled scratch and points
// the parameter tensors at it. Worker-only; must be paired with uninstall.
func (st *quantStore) install() {
	if st == nil || st.installed {
		return
	}
	for i, p := range st.params {
		s := tensor.AcquireScratch(p.Value.Len())
		st.enc[i].DecodeInto(s)
		p.Value.Data = s
	}
	st.installed = true
}

// uninstall releases the scratch weights installed by install.
func (st *quantStore) uninstall() {
	if st == nil || !st.installed {
		return
	}
	for _, p := range st.params {
		s := p.Value.Data
		p.Value.Data = nil
		tensor.ReleaseScratch(s)
	}
	st.installed = false
}

// quantRow is one feature row in the cache's storage format: exactly one
// representation is populated, matching the cache's mode.
type quantRow struct {
	f32   []float32
	q     []int8
	scale float32
}

// encodeRow converts row into freshly allocated storage of mode's format.
// The f32 mode copies (the pre-quantization cache behavior, byte-exact).
func encodeRow(mode tensor.QuantMode, row []float32) quantRow {
	var r quantRow
	switch mode {
	case tensor.QuantOff:
		r.f32 = make([]float32, len(row))
	case tensor.QuantInt8:
		r.q = make([]int8, len(row))
	default:
		panic(fmt.Sprintf("serve: encodeRow unknown mode %v", mode))
	}
	r.encode(row)
	return r
}

// encode overwrites the row's storage in place with the encoding of src
// (same width) — how a recycled cache entry takes a new row.
func (r *quantRow) encode(src []float32) {
	if r.f32 != nil {
		copy(r.f32, src)
	} else {
		r.scale = tensor.Int8EncodeRow(r.q, src)
	}
}

// decodeInto reconstructs the row into dst.
func (r quantRow) decodeInto(dst []float32) {
	if r.f32 != nil {
		copy(dst, r.f32)
	} else {
		tensor.Int8DecodeRow(dst, r.q, r.scale)
	}
}

// bytes returns the row's resident size.
func (r quantRow) bytes() int64 {
	if r.f32 != nil {
		return int64(len(r.f32)) * 4
	}
	return int64(len(r.q)) + 4
}
