package tensor

import (
	"math"
	"strings"
	"testing"

	"betty/internal/rng"
)

// TestInt8RoundTrip checks the documented int8 bound: per row,
// |decode(encode(v)) - v| <= scale/2 with scale = maxabs(row)/127, and
// all-zero rows survive exactly via the zero-scale sentinel.
func TestInt8RoundTrip(t *testing.T) {
	r := rng.New(52)
	const cols = 137
	for trial := 0; trial < 2000; trial++ {
		row := make([]float32, cols)
		var maxAbs float64
		for j := range row {
			row[j] = float32((r.Float64()*2 - 1) * math.Exp((r.Float64()*2-1)*5))
			if a := math.Abs(float64(row[j])); a > maxAbs {
				maxAbs = a
			}
		}
		q := make([]int8, cols)
		scale := Int8EncodeRow(q, row)
		wantScale := maxAbs / 127
		if math.Abs(float64(scale)-wantScale) > wantScale*1e-6 {
			t.Fatalf("scale %v, want maxabs/127 = %v", scale, wantScale)
		}
		dec := make([]float32, cols)
		Int8DecodeRow(dec, q, scale)
		// scale/2 with a one-ulp margin for the f32 scale itself.
		bound := float64(scale)/2 + float64(scale)*1e-6
		for j := range row {
			if err := math.Abs(float64(dec[j]) - float64(row[j])); err > bound {
				t.Fatalf("trial %d col %d: value %v decoded %v, error %g exceeds scale/2 = %g",
					trial, j, row[j], dec[j], err, bound)
			}
		}
	}
	// All-zero row: zero-scale sentinel, exact zeros back.
	zero := make([]float32, cols)
	q := make([]int8, cols)
	if s := Int8EncodeRow(q, zero); s != 0 {
		t.Fatalf("all-zero row got scale %v, want 0", s)
	}
	dec := make([]float32, cols)
	dec[0] = 99 // must be overwritten
	Int8DecodeRow(dec, q, 0)
	for j, v := range dec {
		if v != 0 {
			t.Fatalf("zero-sentinel decode col %d = %v, want 0", j, v)
		}
	}
}

// TestQuantTensorDecode round-trips a whole tensor through the int8 format
// and the pooled scratch path, checking shape plumbing and the byte
// accounting.
func TestQuantTensorDecode(t *testing.T) {
	r := rng.New(53)
	src := randTensor(r, 57, 33)
	if q := Quantize(src, QuantOff); q != nil {
		t.Fatalf("QuantOff must return nil, got %+v", q)
	}
	const mode = QuantInt8
	q := Quantize(src, mode)
	if q.Rows != src.RowsN || q.Cols != src.ColsN {
		t.Fatalf("%v: shape %dx%d, want %dx%d", mode, q.Rows, q.Cols, src.RowsN, src.ColsN)
	}
	if q.Bytes() >= int64(src.Len())*4 {
		t.Fatalf("%v: quantized bytes %d not smaller than f32 %d", mode, q.Bytes(), src.Len()*4)
	}
	dst := AcquireScratch(src.Len())
	q.DecodeInto(dst)
	for i, v := range src.Data {
		err := math.Abs(float64(dst[i]) - float64(v))
		var maxAbs float64
		for _, rv := range src.Row(i / src.ColsN) {
			if a := math.Abs(float64(rv)); a > maxAbs {
				maxAbs = a
			}
		}
		if bound := maxAbs/254 + maxAbs*1e-6; err > bound {
			t.Fatalf("%v elem %d: %v decoded %v, error %g exceeds %g", mode, i, v, dst[i], err, bound)
		}
	}
	ReleaseScratch(dst)
}

// TestParseQuantMode table-tests the BETTY_QUANT parser: valid spellings
// map to their modes, everything else fails loudly.
func TestParseQuantMode(t *testing.T) {
	good := map[string]QuantMode{"": QuantOff, "off": QuantOff, "int8": QuantInt8}
	for in, want := range good {
		got, err := ParseQuantMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseQuantMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"0", "on", "f16", "fp16", "INT8", "int-8", "half"} {
		_, err := ParseQuantMode(in)
		if err == nil || !strings.Contains(err.Error(), "unknown mode (want off or int8)") {
			t.Fatalf("ParseQuantMode(%q) = %v, want the unknown-mode error", in, err)
		}
	}
}
