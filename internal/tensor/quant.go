package tensor

import (
	"fmt"
	"math"
)

// Quantized storage for the inference-only serve path (DESIGN.md §13).
// Training never touches these formats: they compress weights and cached
// feature rows at rest, and the serve worker dequantizes into pooled f32
// scratch (AcquireScratch) before the exact f32 kernels run. One format:
// int8 with symmetric per-row scaling. Each row stores scale = maxabs/127
// and bytes round(v/scale) in [-127, 127]; the round-trip error is at most
// scale/2 = maxabs(row)/254 (enforced by TestInt8RoundTrip). All-zero rows
// store scale 0 and decode to exact zeros.

// QuantMode selects the serve-path storage format.
type QuantMode int

// Quantization modes. Off is the default: the serve path stays exact f32.
const (
	QuantOff QuantMode = iota
	QuantInt8
)

// String implements fmt.Stringer.
func (m QuantMode) String() string {
	switch m {
	case QuantOff:
		return "off"
	case QuantInt8:
		return "int8"
	default:
		return fmt.Sprintf("quant(%d)", int(m))
	}
}

// ParseQuantMode validates a BETTY_QUANT value. The empty string means
// "unset" and yields QuantOff. Anything other than off/int8 is an
// error: a typo must fail loudly rather than silently serve exact f32 when
// the operator asked for a compressed deployment (or vice versa).
func ParseQuantMode(v string) (QuantMode, error) {
	switch v {
	case "", "off":
		return QuantOff, nil
	case "int8":
		return QuantInt8, nil
	default:
		return QuantOff, fmt.Errorf("BETTY_QUANT=%q: unknown mode (want off or int8)", v)
	}
}

// --- int8 per-row codec ---

// Int8EncodeRow quantizes src with scale maxabs/127 into dst (same length)
// and returns the scale. The maximum round-trip error is scale/2. An
// all-zero row (or one poisoned by non-finite values) gets scale 0, the
// sentinel Int8DecodeRow maps back to exact zeros.
func Int8EncodeRow(dst []int8, src []float32) (scale float32) {
	if len(dst) != len(src) {
		panic("tensor: Int8EncodeRow length mismatch")
	}
	var maxAbs float32
	for _, v := range src {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	//bettyvet:ok floateq scale-sentinel: an exactly-zero (or non-finite) maxabs marks the all-zero row encoding, compared exactly by contract
	if maxAbs == 0 || math.IsInf(float64(maxAbs), 0) || math.IsNaN(float64(maxAbs)) {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale = maxAbs / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		q := math.RoundToEven(float64(v) * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// Int8DecodeRow reconstructs quantized values into dst: dst[j] = q[j]*scale.
// A zero scale (the all-zero-row sentinel) decodes to exact zeros.
func Int8DecodeRow(dst []float32, q []int8, scale float32) {
	if len(dst) != len(q) {
		panic("tensor: Int8DecodeRow length mismatch")
	}
	//bettyvet:ok floateq scale-sentinel: zero scale marks the all-zero row encoding, compared exactly by contract
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i, v := range q {
		dst[i] = float32(v) * scale
	}
}

// QuantTensor is a tensor stored in a quantized format, decodable into f32
// scratch for the exact kernels.
type QuantTensor struct {
	Rows int
	Cols int
	// Scales/Q hold per-row scales and Rows*Cols quantized bytes.
	Scales []float32
	Q      []int8
}

// Quantize encodes t under mode. QuantOff returns nil: callers keep the
// original f32 tensor.
func Quantize(t *Tensor, mode QuantMode) *QuantTensor {
	switch mode {
	case QuantOff:
		return nil
	case QuantInt8:
		q := &QuantTensor{
			Rows:   t.RowsN,
			Cols:   t.ColsN,
			Scales: make([]float32, t.RowsN),
			Q:      make([]int8, t.Len()),
		}
		for i := 0; i < t.RowsN; i++ {
			q.Scales[i] = Int8EncodeRow(q.Q[i*t.ColsN:(i+1)*t.ColsN], t.Row(i))
		}
		return q
	default:
		panic(fmt.Sprintf("tensor: Quantize unknown mode %v", mode))
	}
}

// DecodeInto dequantizes q into dst, which must hold Rows*Cols floats —
// typically a pooled scratch slice from AcquireScratch.
func (q *QuantTensor) DecodeInto(dst []float32) {
	if len(dst) != q.Rows*q.Cols {
		panic(fmt.Sprintf("tensor: DecodeInto needs %d floats, got %d", q.Rows*q.Cols, len(dst)))
	}
	for i := 0; i < q.Rows; i++ {
		Int8DecodeRow(dst[i*q.Cols:(i+1)*q.Cols], q.Q[i*q.Cols:(i+1)*q.Cols], q.Scales[i])
	}
}

// Bytes returns the storage footprint of the quantized form.
func (q *QuantTensor) Bytes() int64 {
	return int64(len(q.Q)) + int64(len(q.Scales))*4
}
