package checkpoint

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
	"betty/internal/rng"
	"betty/internal/tensor"
)

func testModel(t testing.TB, seed uint64) *nn.GraphSAGE {
	t.Helper()
	m, err := nn.NewGraphSAGE(nn.Config{
		InDim: 6, Hidden: 8, OutDim: 3, Layers: 2, Aggregator: nn.Mean,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	src := testModel(t, 1)
	var buf bytes.Buffer
	meta := map[string]string{"dataset": "cora", "epoch": "12"}
	if err := Save(&buf, src, meta); err != nil {
		t.Fatal(err)
	}
	dst := testModel(t, 99) // different init
	got, err := Load(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got["dataset"] != "cora" || got["epoch"] != "12" {
		t.Fatalf("metadata lost: %v", got)
	}
	ps, pd := src.Params(), dst.Params()
	for i := range ps {
		for j := range ps[i].Value.Data {
			if math.Float32bits(ps[i].Value.Data[j]) != math.Float32bits(pd[i].Value.Data[j]) {
				t.Fatalf("param %d elem %d not restored", i, j)
			}
		}
	}
}

func TestRoundTripPreservesForward(t *testing.T) {
	src := testModel(t, 2)
	var buf bytes.Buffer
	if err := Save(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	dst := testModel(t, 77)
	if _, err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	b := &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 1, 2},
		SrcLocal: []int32{2, 0},
		EID:      []int32{-1, -1},
		SrcNID:   []int32{0, 1, 2},
		DstNID:   []int32{0, 1},
	}
	inner := &graph.Block{
		NumSrc: 3,
		NumDst: 3,
		Ptr:    []int64{0, 0, 0, 0},
		SrcNID: []int32{0, 1, 2},
		DstNID: []int32{0, 1, 2},
	}
	x := tensor.New(3, 6)
	x.Randn(rng.New(3), 1)
	fwd := func(m *nn.GraphSAGE) *tensor.Tensor {
		tp := tensor.NewTape()
		return m.Forward(tp, []*graph.Block{inner, b}, tensor.Leaf(x)).Value
	}
	a, c := fwd(src), fwd(dst)
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(c.Data[i]) {
			t.Fatal("restored model computes different outputs")
		}
	}
}

func TestShapeMismatchRejectedWithoutMutation(t *testing.T) {
	small := testModel(t, 4)
	var buf bytes.Buffer
	if err := Save(&buf, small, nil); err != nil {
		t.Fatal(err)
	}
	big, err := nn.NewGraphSAGE(nn.Config{
		InDim: 6, Hidden: 16, OutDim: 3, Layers: 2, Aggregator: nn.Mean,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	before := big.Params()[0].Value.Clone()
	if _, err := Load(&buf, big); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	after := big.Params()[0].Value
	for i := range before.Data {
		if math.Float32bits(before.Data[i]) != math.Float32bits(after.Data[i]) {
			t.Fatal("failed load mutated the model")
		}
	}
}

func TestParamCountMismatchRejected(t *testing.T) {
	sage := testModel(t, 6)
	var buf bytes.Buffer
	if err := Save(&buf, sage, nil); err != nil {
		t.Fatal(err)
	}
	pool, err := nn.NewGraphSAGE(nn.Config{
		InDim: 6, Hidden: 8, OutDim: 3, Layers: 2, Aggregator: nn.Pool,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, pool); err == nil {
		t.Fatal("different architecture accepted")
	}
}

func TestGarbageRejected(t *testing.T) {
	m := testModel(t, 8)
	if _, err := Load(bytes.NewBufferString("not a checkpoint"), m); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := testModel(t, 9)
	if err := SaveFile(path, src, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	dst := testModel(t, 10)
	meta, err := LoadFile(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if meta["k"] != "v" {
		t.Fatal("file metadata lost")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.ckpt"), dst); err == nil {
		t.Fatal("missing file accepted")
	}
}
