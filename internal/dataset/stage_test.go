package dataset

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"betty/internal/graph"
	"betty/internal/tensor"
)

// countingSource serves the in-RAM matrix but reports nothing resident
// unless resident is set — the way a disk-backed source reports its
// cache — and counts gathers. A non-nil fail makes every gather fail.
type countingSource struct {
	*MatrixSource
	resident bool
	gathers  int
	fail     error
}

func (c *countingSource) ResidentBytes() int64 {
	if c.resident {
		return c.MatrixSource.ResidentBytes()
	}
	return 0
}

func (c *countingSource) GatherInto(out *tensor.Tensor, nids []int32) error {
	c.gathers++
	if c.fail != nil {
		return c.fail
	}
	return c.MatrixSource.GatherInto(out, nids)
}

// stageSource returns a counting source over a small generated matrix.
func stageSource(t *testing.T) *countingSource {
	t.Helper()
	d, err := Generate(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	return &countingSource{MatrixSource: AsSource(d.Features)}
}

// micros builds one single-block micro-batch per input list; Load reads
// only the layer-0 inputs.
func micros(inputs ...[]int32) [][]*graph.Block {
	out := make([][]*graph.Block, len(inputs))
	for i, in := range inputs {
		out[i] = []*graph.Block{{SrcNID: in}}
	}
	return out
}

func missing(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not in the staged batch frontier")
}

// gatherOne gathers node nid's row from src with a one-row GatherInto.
func gatherOne(src FeatureSource, nid int32) ([]float32, error) {
	out := tensor.New(1, src.Dim())
	return out.Row(0), src.GatherInto(out, []int32{nid})
}

// A loaded stage gathers its union from the source once and serves every
// micro-batch's rows bitwise like the source; a node outside it is an
// error, and after Release it holds nothing.
func TestStageServesBatch(t *testing.T) {
	src := stageSource(t)
	batch := micros([]int32{5, 0, 9}, []int32{9, 3, 5}, []int32{12})
	s := &Stage{}
	got, err := s.Load(src, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != FeatureSource(s) || src.gathers != 1 {
		t.Fatalf("Load returned %T after %d gathers, want the stage after 1", got, src.gathers)
	}
	if want := int64(5 * src.Dim() * 4); s.ResidentBytes() != want {
		t.Fatalf("staged %d bytes, want %d (5 frontier rows)", s.ResidentBytes(), want)
	}
	for _, mb := range batch {
		nids := mb[0].SrcNID
		out, want := tensor.New(len(nids), src.Dim()), tensor.New(len(nids), src.Dim())
		if err := got.GatherInto(out, nids); err != nil {
			t.Fatal(err)
		}
		if err := src.MatrixSource.GatherInto(want, nids); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Data, want.Data) {
			t.Fatalf("staged rows of %v differ from the source's", nids)
		}
	}
	if row, err := gatherOne(got, 3); err != nil || !slices.Equal(row, src.t().Row(3)) {
		t.Fatalf("staged row 3: err %v, rows equal %v", err, slices.Equal(row, src.t().Row(3)))
	}
	if _, err := gatherOne(got, 7); !missing(err) {
		t.Fatalf("gather outside the stage: err = %v, want a missing-node error", err)
	}
	s.Release()
	if _, err := gatherOne(got, 5); !missing(err) || s.ResidentBytes() != 0 {
		t.Fatalf("after Release: err = %v, %d bytes staged", err, s.ResidentBytes())
	}
}

// The node → row table outlives its batch: the next Load reuses it without
// clearing it, and a node only the previous batch staged is still missing.
func TestStageRejectsPreviousBatchNode(t *testing.T) {
	src := stageSource(t)
	s := &Stage{}
	if _, err := s.Load(src, micros([]int32{1, 2, 3}), nil); err != nil {
		t.Fatal(err)
	}
	table := &s.row[0]
	got, err := s.Load(src, micros([]int32{4, 5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if &s.row[0] != table {
		t.Fatal("the second batch allocated a new node → row table")
	}
	if _, err := gatherOne(got, 2); !missing(err) {
		t.Fatalf("node staged only by the previous batch: err = %v, want a missing-node error", err)
	}
	if row, err := gatherOne(got, 5); err != nil || !slices.Equal(row, src.t().Row(5)) {
		t.Fatalf("node 5: err %v, rows equal %v", err, slices.Equal(row, src.t().Row(5)))
	}
}

// A source that holds every row in RAM is returned unchanged: nothing is
// gathered and nothing is staged.
func TestStageReturnsResidentSource(t *testing.T) {
	src := stageSource(t)
	src.resident = true
	s := &Stage{}
	got, err := s.Load(src, micros([]int32{1, 2}, []int32{2, 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != FeatureSource(src) || src.gathers != 0 || s.ResidentBytes() != 0 {
		t.Fatalf("resident source: Load returned %T, %d gathers, %d staged bytes", got, src.gathers, s.ResidentBytes())
	}
}

// A failed gather leaves nothing staged and returns the scratch to the pool.
func TestStageFailedLoadHoldsNothing(t *testing.T) {
	src := stageSource(t)
	s := &Stage{}
	if _, err := s.Load(src, micros([]int32{1, 2}), nil); err != nil {
		t.Fatal(err)
	}
	src.fail = errors.New("shard unreadable")
	s.Release()
	tensor.DrainPool() // zero the pool counters
	if _, err := s.Load(src, micros([]int32{3}), nil); err == nil || !strings.Contains(err.Error(), "shard unreadable") {
		t.Fatalf("failed gather: err = %v", err)
	}
	if _, err := gatherOne(s, 1); !missing(err) || s.ResidentBytes() != 0 {
		t.Fatalf("after a failed Load: err = %v, %d bytes staged", err, s.ResidentBytes())
	}
	if acq, _, rel := tensor.PoolStats(); acq == 0 || acq != rel {
		t.Fatalf("pool: %d acquires, %d releases", acq, rel)
	}
}
