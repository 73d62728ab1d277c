package store

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/obs"
)

func buildSAGE(t *testing.T, ds *dataset.Dataset, seed uint64) *core.Setup {
	t.Helper()
	return buildSAGEK(t, ds, seed, 2)
}

// buildSAGEK is buildSAGE with k micro-batches per epoch.
func buildSAGEK(t *testing.T, ds *dataset.Dataset, seed uint64, k int) *core.Setup {
	t.Helper()
	agg, err := nn.ParseAggregator("mean")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := core.BuildSAGE(ds, core.Options{
		Hidden: 16, Fanouts: []int{3, 3}, LR: 0.01, Seed: seed, FixedK: k,
		Aggregator: agg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

// trainLosses runs epochs and returns the bit patterns of each epoch loss.
func trainLosses(t *testing.T, setup *core.Setup, epochs int) []uint64 {
	t.Helper()
	out := make([]uint64, epochs)
	for e := 0; e < epochs; e++ {
		st, err := setup.Engine.TrainEpochMicro()
		if err != nil {
			t.Fatal(err)
		}
		out[e] = math.Float64bits(st.Loss)
	}
	return out
}

func paramBits(setup *core.Setup) []uint32 {
	var bits []uint32
	for _, p := range setup.Model.Params() {
		for _, v := range p.Value.Data {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// A persisted-frontier run must be bitwise identical to a resampled run
// with the same seed — losses every epoch and final parameters — and the
// obs counters must prove the reuse: exactly one resample for the train
// seed set, reuse every later epoch.
func TestMacroReuseEquivalence(t *testing.T) {
	ds := genDataset(t, 800, 12, 31)
	const epochs = 3

	base := buildSAGE(t, ds, 7)
	wantLosses := trainLosses(t, base, epochs)

	dir := t.TempDir()
	reg := obs.New(obs.NewFakeClock(0, 1))
	withMacro := buildSAGE(t, ds, 7)
	withMacro.Engine.SetObs(reg)
	mc := NewMacroCache(filepath.Join(dir, "train.macro"),
		withMacro.Engine.Sampler.ConfigKey(), reg)
	withMacro.Engine.Frontiers = mc

	gotLosses := trainLosses(t, withMacro, epochs)
	for e := range wantLosses {
		if gotLosses[e] != wantLosses[e] {
			t.Fatalf("epoch %d loss differs: %x vs %x", e+1, gotLosses[e], wantLosses[e])
		}
	}
	a, b := paramBits(base), paramBits(withMacro)
	if len(a) != len(b) {
		t.Fatal("parameter count mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parameter %d differs", i)
		}
	}
	if got := reg.CounterValue("macro.resample"); got != 1 {
		t.Fatalf("macro.resample = %d, want exactly 1 (first epoch only)", got)
	}
	if got := reg.CounterValue("macro.reuse"); got != epochs-1 {
		t.Fatalf("macro.reuse = %d, want %d", got, epochs-1)
	}
	if reg.CounterValue("macro.saves") != 1 {
		t.Fatal("macrobatch not persisted")
	}

	// A fresh process (new MacroCache over the same file) reuses from disk
	// with zero resampling.
	reg2 := obs.New(obs.NewFakeClock(0, 1))
	fresh := buildSAGE(t, ds, 7)
	fresh.Engine.SetObs(reg2)
	fresh.Engine.Frontiers = NewMacroCache(filepath.Join(dir, "train.macro"),
		fresh.Engine.Sampler.ConfigKey(), reg2)
	freshLosses := trainLosses(t, fresh, epochs)
	for e := range wantLosses {
		if freshLosses[e] != wantLosses[e] {
			t.Fatalf("disk-reused epoch %d loss differs", e+1)
		}
	}
	if got := reg2.CounterValue("macro.resample"); got != 0 {
		t.Fatalf("disk reuse resampled %d times, want 0", got)
	}
	if reg2.CounterValue("macro.disk_loads") == 0 {
		t.Fatal("no disk load recorded")
	}
}

// A macro file written under one sampler configuration must refuse to
// serve another: silently training on stale frontiers would be a wrong
// model, not a slow one.
func TestMacroKeyMismatch(t *testing.T) {
	ds := genDataset(t, 400, 8, 32)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.macro")

	setup := buildSAGE(t, ds, 7)
	setup.Engine.Frontiers = NewMacroCache(path, setup.Engine.Sampler.ConfigKey(), nil)
	if _, err := setup.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}

	other := NewMacroCache(path, setup.Engine.Sampler.ConfigKey()^1, nil)
	if _, _, err := other.Load(ds.TrainIdx); err == nil {
		t.Fatal("sampler-config mismatch accepted")
	}

	// Different seed set under the right key: same file, loud mismatch
	// (the file stores one seed set's frontier).
	right := NewMacroCache(path, setup.Engine.Sampler.ConfigKey(), nil)
	if _, _, err := right.Load(ds.TrainIdx[:len(ds.TrainIdx)-1]); err == nil {
		t.Fatal("seed-set mismatch accepted")
	}

	// A missing file is not an error — it is "sample and save".
	gone := NewMacroCache(filepath.Join(dir, "nope.macro"), 1, nil)
	if _, ok, err := gone.Load(ds.TrainIdx); err != nil || ok {
		t.Fatalf("missing file: ok=%v err=%v, want miss", ok, err)
	}
}

// A corrupted macro file must fail loudly, never panic or decode to
// stale frontiers.
func TestMacroCorruption(t *testing.T) {
	ds := genDataset(t, 400, 8, 33)
	path := filepath.Join(t.TempDir(), "m.macro")
	setup := buildSAGE(t, ds, 7)
	mc := NewMacroCache(path, setup.Engine.Sampler.ConfigKey(), nil)
	setup.Engine.Frontiers = mc
	if _, err := setup.Engine.TrainEpochMicro(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewMacroCache(path, setup.Engine.Sampler.ConfigKey(), nil)
		if _, _, err := fresh.Load(ds.TrainIdx); err == nil {
			t.Fatalf("offset %d: corrupted macro file accepted", off)
		}
	}
	for _, n := range []int{0, 4, len(blob) - 1} {
		if err := os.WriteFile(path, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewMacroCache(path, setup.Engine.Sampler.ConfigKey(), nil)
		if _, _, err := fresh.Load(ds.TrainIdx); err == nil {
			t.Fatalf("truncation %d: accepted", n)
		}
	}
}

// A macrobatch whose checksum, key and seed hash all verify can still hold
// a frontier no batch can have. Load must refuse it, naming the file,
// before the engine indexes through it.
func TestMacroMalformedFrontier(t *testing.T) {
	seeds := []int32{4, 9}
	inner := &graph.Block{
		NumSrc: 3, NumDst: 2, Ptr: []int64{0, 1, 2},
		SrcLocal: []int32{2, 0}, EID: []int32{5, 6},
		SrcNID: []int32{7, 4, 9}, DstNID: []int32{7, 4},
	}
	for name, blocks := range map[string][]*graph.Block{
		"source out of range": {{
			NumSrc: 2, NumDst: 2, Ptr: []int64{0, 1, 2},
			SrcLocal: []int32{0, 99}, EID: []int32{0, 1},
			SrcNID: []int32{4, 9}, DstNID: []int32{4, 9},
		}},
		"broken chain": {inner, {
			NumSrc: 3, NumDst: 2, Ptr: []int64{0, 1, 1},
			SrcLocal: []int32{2}, EID: []int32{3},
			SrcNID: []int32{4, 9, 7}, DstNID: []int32{4, 9},
		}},
		"no blocks": {},
	} {
		path := filepath.Join(t.TempDir(), "m.macro")
		if err := NewMacroCache(path, 1, nil).Save(seeds, blocks); err != nil {
			t.Fatal(err)
		}
		_, ok, err := NewMacroCache(path, 1, nil).Load(seeds)
		if err == nil || ok {
			t.Fatalf("%s: Load returned ok=%v err=%v, want an error", name, ok, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name %s", name, err, path)
		}
	}
}
