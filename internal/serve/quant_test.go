package serve

import (
	"strings"
	"testing"

	"betty/internal/core"
	"betty/internal/obs"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// quantScores runs one fresh server over nodes under cfg and returns the
// response rows.
func quantScores(t *testing.T, cfg Config, nodes []int32, model any) [][]float32 {
	t.Helper()
	d := testData(t)
	s := newTestServer(t, d, model, cfg)
	s.Start()
	defer s.Close()
	scores, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// directScores computes the reference: sample with the server's sampler
// seed, stage features through mapRow, run the shared forward.
func directScores(t *testing.T, cfg Config, nodes []int32, model any, mapRow func(dst, src []float32)) [][]float32 {
	t.Helper()
	d := testData(t)
	sampler := sample.NewNodeWise(cfg.Fanouts, cfg.Seed)
	blocks, err := sampler.Sample(d.Graph, nodes)
	if err != nil {
		t.Fatal(err)
	}
	feats := tensor.New(blocks[0].NumSrc, d.FeatureDim())
	for i, nid := range blocks[0].SrcNID {
		mapRow(feats.Row(i), d.Features.Row(int(nid)))
	}
	logits, err := core.BatchInference(model, blocks, feats)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float32, len(nodes))
	for i := range nodes {
		out[i] = append([]float32(nil), logits.Row(i)...)
	}
	return out
}

// roundTripParams applies the serving quantization rule to a model in
// place: every weight matrix (more than one row) whose encoding is
// strictly smaller than f32 is replaced by its codec round-trip. This is
// the same rule newQuantStore applies, restated independently so the test
// pins the contract rather than the implementation.
func roundTripParams(t *testing.T, model any, mode tensor.QuantMode) {
	t.Helper()
	pm, ok := model.(interface{ Params() []*tensor.Var })
	if !ok {
		t.Fatalf("model %T has no Params", model)
	}
	n := 0
	for _, p := range pm.Params() {
		if p.Value.Rows() <= 1 {
			continue
		}
		q := tensor.Quantize(p.Value, mode)
		if q.Bytes() >= int64(p.Value.Len())*4 {
			continue
		}
		q.DecodeInto(p.Value.Data)
		n++
	}
	if n == 0 {
		t.Fatalf("%v round-trip touched no parameter", mode)
	}
}

// TestQuantOffByteIdentity is the BETTY_QUANT=off contract: the default
// configuration serves exactly what the shared forward produces from the
// exact f32 weights and features — the quantization machinery must be
// fully inert when off.
func TestQuantOffByteIdentity(t *testing.T) {
	d := testData(t)
	model := testModel(t, d)
	nodes := []int32{3, 8, 120, 700, 41}
	cfg := testConfig(obs.NewFakeClock(0, 1), nil)
	got := quantScores(t, cfg, nodes, model)
	want := directScores(t, cfg, nodes, model, func(dst, src []float32) { copy(dst, src) })
	if !bitwiseEqual(got, want) {
		t.Fatal("QuantOff serving differs from the exact shared forward")
	}
}

// TestQuantServingMatchesRoundTrippedReference pins what quantized serving
// IS: bitwise identical to running the exact f32 forward on the
// codec-round-tripped weights and features. The forward kernels never see
// a quantized number — only decoded f32 — so the entire deployment error
// is the codec's documented round-trip error propagated through the model,
// and the scores must still land within a loose end-to-end band of exact.
func TestQuantServingMatchesRoundTrippedReference(t *testing.T) {
	d := testData(t)
	nodes := []int32{3, 8, 120, 700, 41, 77, 410}
	baseCfg := testConfig(obs.NewFakeClock(0, 1), nil)
	exact := directScores(t, baseCfg, nodes, testModel(t, d),
		func(dst, src []float32) { copy(dst, src) })

	cases := []struct {
		mode  tensor.QuantMode
		bound float64 // end-to-end |quant - exact| ceiling for this model
	}{
		{tensor.QuantInt8, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			reg := obs.New(obs.NewFakeClock(0, 1))
			cfg := testConfig(obs.NewFakeClock(0, 1), reg)
			cfg.Quant = tc.mode
			// The server quantizes its model in place; reference gets its
			// own identically-seeded instance, round-tripped by the rule.
			got := quantScores(t, cfg, nodes, testModel(t, d))
			ref := testModel(t, d)
			roundTripParams(t, ref, tc.mode)
			want := directScores(t, cfg, nodes, ref, func(dst, src []float32) {
				encodeRow(tc.mode, src).decodeInto(dst)
			})
			if !bitwiseEqual(got, want) {
				t.Fatal("quantized serving differs from round-tripped reference forward")
			}
			// The compressed weights must actually be smaller...
			enc, _ := reg.GaugeValue("serve.quant_weight_bytes")
			f32, _ := reg.GaugeValue("serve.quant_weight_f32_bytes")
			if enc <= 0 || f32 <= 0 || enc >= f32 {
				t.Fatalf("quant weight bytes %d vs f32 %d: no compression recorded", enc, f32)
			}
			// ...and the end-to-end error bounded.
			var worst float64
			for i := range got {
				for j := range got[i] {
					if dv := float64(got[i][j]) - float64(exact[i][j]); dv > worst {
						worst = dv
					} else if -dv > worst {
						worst = -dv
					}
				}
			}
			if worst == 0 {
				t.Fatal("quantized scores identical to exact — quantization did not engage")
			}
			if worst > tc.bound {
				t.Fatalf("max |quant-exact| = %g exceeds %g", worst, tc.bound)
			}
		})
	}
}

// Quantized gather round-trips misses through the codec before staging, so
// the cache cannot change a prediction: a cold server, a warm cache, and a
// cache-disabled server must serve identical bytes.
func TestQuantCacheInvisible(t *testing.T) {
	d := testData(t)
	nodes := []int32{3, 8, 120, 700}
	const mode = tensor.QuantInt8
	cfg := testConfig(obs.NewFakeClock(0, 1), nil)
	cfg.Quant = mode
	s := newTestServer(t, d, testModel(t, d), cfg)
	s.Start()
	cold, err := s.Predict(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Predict(nodes, 0) // all hits now
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !bitwiseEqual(cold, warm) {
		t.Fatalf("%v: warm-cache response differs from cold", mode)
	}
	noCache := cfg
	noCache.CacheNodes = 0
	bare := quantScores(t, noCache, nodes, testModel(t, d))
	if !bitwiseEqual(cold, bare) {
		t.Fatalf("%v: cache-disabled response differs from cached", mode)
	}
}

// BETTY_QUANT is applied by ApplyEnv with the same fail-loudly contract as
// the other serving knobs.
func TestQuantEnv(t *testing.T) {
	env := func(m map[string]string) func(string) string {
		return func(k string) string { return m[k] }
	}
	cfg := Defaults()
	cfg.Fanouts = []int{4}
	if err := cfg.ApplyEnv(env(map[string]string{EnvQuant: "int8"})); err != nil {
		t.Fatal(err)
	}
	if cfg.Quant != tensor.QuantInt8 {
		t.Fatalf("Quant = %v, want int8", cfg.Quant)
	}
	if err := cfg.ApplyEnv(env(map[string]string{EnvQuant: "off"})); err != nil {
		t.Fatal(err)
	}
	if cfg.Quant != tensor.QuantOff {
		t.Fatalf("Quant = %v, want off", cfg.Quant)
	}
	for _, bad := range []string{"fp16", "f16"} { // f16 was a mode once; it must not parse quietly
		err := cfg.ApplyEnv(env(map[string]string{EnvQuant: bad}))
		if err == nil || !strings.Contains(err.Error(), "BETTY_QUANT") ||
			!strings.Contains(err.Error(), "unknown mode (want off or int8)") {
			t.Fatalf("BETTY_QUANT=%s accepted or misreported: %v", bad, err)
		}
	}
}
