package train

import (
	"math"
	"slices"
	"testing"

	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// countingSource serves the in-RAM matrix but reports nothing resident —
// the way a disk-backed source reports its cache — and counts gathers.
type countingSource struct {
	*dataset.MatrixSource
	gathers int
}

func (c *countingSource) ResidentBytes() int64 { return 0 }

func (c *countingSource) GatherInto(out *tensor.Tensor, nids []int32) error {
	c.gathers++
	return c.MatrixSource.GatherInto(out, nids)
}

// stageFixture returns the dataset over src and a batch split into k
// micro-batches by output range.
func stageFixture(t *testing.T, src *countingSource, k int) (*dataset.Dataset, [][]*graph.Block) {
	t.Helper()
	d := testData(t)
	src.MatrixSource = dataset.AsSource(d.Features)
	d.Source = src
	full, err := sample.New([]int{5, 5}, 1).Sample(d.Graph, d.TrainIdx[:128])
	if err != nil {
		t.Fatal(err)
	}
	n := full[len(full)-1].NumDst
	micros := make([][]*graph.Block, k)
	for i := range micros {
		var sel []int32
		for j := i * n / k; j < (i+1)*n/k; j++ {
			sel = append(sel, int32(j))
		}
		if micros[i], err = graph.SliceBatch(full, sel); err != nil {
			t.Fatal(err)
		}
	}
	return d, micros
}

// A staged batch gathers from the source once, serves every micro-batch's
// forward and measurement from the stage with bitwise-identical results,
// and hands gathers back to the source after Unstage. The stage's own
// cases live with dataset.Stage.
func TestStageBatchServesMicroBatches(t *testing.T) {
	src := &countingSource{}
	d, micros := stageFixture(t, src, 4)
	ref := testRunner(t, testData(t), nil)
	r := testRunner(t, d, nil)

	var union []int32
	for _, mb := range micros {
		union = append(union, mb[0].SrcNID...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	bytes, err := r.StageBatch(micros)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(union)) * int64(d.FeatureDim()) * 4; bytes != want {
		t.Fatalf("staged %d bytes, want %d (%d frontier rows)", bytes, want, len(union))
	}
	for i, mb := range micros {
		if _, err := r.MeasureForward(mb); err != nil {
			t.Fatal(err)
		}
		got, err := r.RunMicroBatch(mb, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunMicroBatch(mb, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) {
			t.Fatalf("micro-batch %d: staged loss %v, unstaged %v", i, got.Loss, want.Loss)
		}
	}
	if src.gathers != 1 {
		t.Fatalf("%d source gathers for a staged batch, want 1", src.gathers)
	}

	r.Unstage()
	before := src.gathers
	if _, err := r.RunMicroBatch(micros[1], 1); err != nil {
		t.Fatal(err)
	}
	if src.gathers != before+1 {
		t.Fatal("after Unstage the micro-batch did not gather from the source")
	}
}
