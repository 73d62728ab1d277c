package checkpoint

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"betty/internal/nn"
	"betty/internal/rng"
)

// FuzzCheckpointLoad feeds arbitrary bytes to Load: every input either
// loads or returns an error without panicking, and a failed load leaves
// every parameter bit of the model unchanged. The seeds are a valid
// checkpoint, the same checkpoint truncated, one with the version bumped,
// and one saved from a model of another shape.
func FuzzCheckpointLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := Save(&valid, testModel(f, 1), map[string]string{"dataset": "cora"}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])

	env := envelope{Version: formatVersion + 1}
	for _, p := range testModel(f, 1).Params() {
		env.Params = append(env.Params, paramBlob{Rows: p.Value.Rows(), Cols: p.Value.Cols(), Data: p.Value.Data})
	}
	var bumped bytes.Buffer
	if err := gob.NewEncoder(&bumped).Encode(&env); err != nil {
		f.Fatal(err)
	}
	f.Add(bumped.Bytes())

	wide, err := nn.NewGraphSAGE(nn.Config{
		InDim: 6, Hidden: 16, OutDim: 3, Layers: 2, Aggregator: nn.Mean,
	}, rng.New(2))
	if err != nil {
		f.Fatal(err)
	}
	var mismatch bytes.Buffer
	if err := Save(&mismatch, wide, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(mismatch.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m := testModel(t, 99)
		var before [][]uint32
		for _, p := range m.Params() {
			bits := make([]uint32, len(p.Value.Data))
			for i, v := range p.Value.Data {
				bits[i] = math.Float32bits(v)
			}
			before = append(before, bits)
		}
		if _, err := Load(bytes.NewReader(data), m); err == nil {
			return
		}
		for i, p := range m.Params() {
			for j, v := range p.Value.Data {
				if math.Float32bits(v) != before[i][j] {
					t.Fatalf("failed load changed parameter %d element %d", i, j)
				}
			}
		}
	})
}

// TestMetaCountBombBounded loads the corpus checkpoint meta-count-2p28: a
// valid version-2 checkpoint whose Meta count was rewritten to claim 2^28
// entries (gob bytes fc 10 00 00 00). gob sizes a map from such a count
// before reading any entry — over 20 GB for this file when Meta was a map —
// but caps a slice's first allocation, so Load must fail in the decode
// having allocated under 16 MiB.
func TestMetaCountBombBounded(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzCheckpointLoad/meta-count-2p28")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "\n[]byte(")
	q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(q)
	if !bytes.Contains(data, []byte{0xfc, 0x10, 0, 0, 0}) {
		t.Fatal("corpus file carries no 2^28 count")
	}
	m := testModel(t, 99)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(data), m)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("Load = %v, want a decode error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("Load allocated %d bytes for a 2^28 Meta count, want under 16 MiB", got)
	}
}
