package checkpoint

import (
	"bytes"
	"encoding/gob"
	"math"
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
