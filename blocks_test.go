package betty_test

// Block-byte pins: every array of the blocks the two samplers draw, of the
// micro-batches SliceBatch cuts, and of the micro-batches and input rows a
// planned forward hands the model, hashed against constants. A refactor of
// the sampling loop, the slicer or the planned forward must leave every
// byte where it was.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/reg"
	"betty/internal/rng"
	"betty/internal/sample"
	"betty/internal/tensor"
)

// pinGraph is a fixed 400-node graph with duplicate edges, self-loops and
// zero-in-degree nodes; weighted attaches a fixed weight to every edge.
func pinGraph(t *testing.T, weighted bool) *graph.Graph {
	t.Helper()
	r := rng.New(2023)
	const n = 400
	var src, dst []int32
	var wt []float32
	for v := int32(0); v < n; v++ {
		if v%37 == 0 {
			continue // no in-edges
		}
		deg := 1 + r.Intn(14)
		for i := 0; i < deg; i++ {
			u := int32(r.Intn(n))
			switch {
			case i == 3:
				u = v // self-loop
			case i == 5 && len(src) > 0 && dst[len(dst)-1] == v:
				u = src[len(src)-1] // duplicate edge
			}
			src = append(src, u)
			dst = append(dst, v)
			wt = append(wt, r.Float32())
		}
	}
	var g *graph.Graph
	var err error
	if weighted {
		g, err = graph.FromEdgesWeighted(n, src, dst, wt)
	} else {
		g, err = graph.FromEdges(n, src, dst)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hashInts[T int32 | int64](h hash.Hash64, s []T) {
	n := int64(len(s))
	if s == nil {
		n = -1
	}
	_ = binary.Write(h, binary.LittleEndian, n)
	_ = binary.Write(h, binary.LittleEndian, s)
}

func hashBlock(h hash.Hash64, b *graph.Block) {
	_ = binary.Write(h, binary.LittleEndian, [2]int64{int64(b.NumSrc), int64(b.NumDst)})
	hashInts(h, b.Ptr)
	hashInts(h, b.SrcLocal)
	hashInts(h, b.EID)
	hashInts(h, b.SrcNID)
	hashInts(h, b.DstNID)
	bits := make([]int32, len(b.EdgeWt))
	for i, w := range b.EdgeWt {
		bits[i] = int32(math.Float32bits(w))
	}
	if b.EdgeWt == nil {
		bits = nil
	}
	hashInts(h, bits)
}

// recModel records the blocks and input values of every forward it runs
// and returns zeros, so a forward through it exposes exactly what the
// caller built.
type recModel struct {
	blocks [][]*graph.Block
	inputs [][]float32
}

func (m *recModel) Params() []*tensor.Var { return nil }

func (m *recModel) Config() nn.Config {
	return nn.Config{InDim: 1, Hidden: 4, OutDim: 1, Layers: 2, Aggregator: nn.Mean}
}

func (m *recModel) Forward(_ *tensor.Tape, blocks []*graph.Block, x *tensor.Var) *tensor.Var {
	m.blocks = append(m.blocks, blocks)
	m.inputs = append(m.inputs, append([]float32(nil), x.Value.Data...)) // x is the tape's, reused after
	return tensor.Leaf(tensor.New(blocks[len(blocks)-1].NumDst, 1))
}

func TestBlockBytesPinned(t *testing.T) {
	seeds := []int32{3, 41, 42, 120, 121, 250, 333, 398, 17, 74}
	type pin struct {
		name string
		sum  uint64
	}
	var got []pin
	for _, weighted := range []bool{false, true} {
		g := pinGraph(t, weighted)
		tag := "unweighted"
		if weighted {
			tag = "weighted"
		}
		hashAll := func(name string, blocks []*graph.Block) {
			h := fnv.New64a()
			for _, b := range blocks {
				hashBlock(h, b)
			}
			got = append(got, pin{name + "/" + tag, h.Sum64()})
		}

		full, err := sample.New([]int{4, 6}, 7).Sample(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		hashAll("Sampler", full)
		nw := sample.NewNodeWise([]int{4, 6}, 7)
		nwBlocks, err := nw.Sample(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		hashAll("NodeWise", nwBlocks)

		// A fixed three-way partition of the outputs, one part out of order.
		var micro []*graph.Block
		for part := 0; part < 3; part++ {
			var sel []int32
			for i := 0; i < len(seeds); i++ {
				if i%3 == part {
					sel = append(sel, int32(i))
				}
			}
			if part == 1 {
				sel[0], sel[len(sel)-1] = sel[len(sel)-1], sel[0]
			}
			mb, err := graph.SliceBatch(full, sel)
			if err != nil {
				t.Fatal(err)
			}
			micro = append(micro, mb...)
		}
		hashAll("SliceBatch", micro)

		// Planned forward: plan the node-wise batch into two thirds of its
		// one-piece forward peak, so it splits, and forward it through
		// recModel over features whose row v holds v; each micro-batch's
		// input values are then its gathered node ids.
		spec := memory.Spec{Model: (&recModel{}).Config(), ParamsGNN: 8}
		pl := &memory.Planner{Capacity: 1 << 40, Partitioner: reg.BettyBatch{Seed: 3}, Spec: spec, Peak: memory.Breakdown.ForwardPeak}
		whole, err := pl.Plan(nwBlocks)
		if err != nil {
			t.Fatal(err)
		}
		pl.Capacity = whole.MaxPeak * 2 / 3
		feats := tensor.New(int(g.NumNodes()), 1)
		for v := range feats.Data {
			feats.Data[v] = float32(v)
		}
		rec := &recModel{}
		h := fnv.New64a()
		plan, err := core.PlannedForward(pl, nwBlocks, rec, dataset.AsSource(feats), &dataset.Stage{}, nil, 0,
			func(pos int, _ []float32) { hashInts(h, []int32{int32(pos)}) })
		if err != nil {
			t.Fatal(err)
		}
		if plan.K < 2 || len(rec.blocks) != plan.K {
			t.Fatalf("planned forward ran %d micro-batches for K = %d, want K >= 2", len(rec.blocks), plan.K)
		}
		for i, micro := range rec.blocks {
			for _, b := range micro {
				hashBlock(h, b)
			}
			ids := make([]int32, len(rec.inputs[i]))
			for j, v := range rec.inputs[i] {
				ids[j] = int32(v)
			}
			hashInts(h, ids)
		}
		got = append(got, pin{"Planned/" + tag, h.Sum64()})
	}

	want := []pin{
		{"Sampler/unweighted", 0xfdefe10977a1c108},
		{"NodeWise/unweighted", 0x904725af295d929d},
		{"SliceBatch/unweighted", 0x186bd122625b032f},
		{"Planned/unweighted", 0xb78cac266dfeaf6d},
		{"Sampler/weighted", 0xac8ad217eafe2988},
		{"NodeWise/weighted", 0xd30620967f05dadd},
		{"SliceBatch/weighted", 0xff002ad13c9e2568},
		{"Planned/weighted", 0x030baa90ae54cbd4},
	}
	if len(got) != len(want) {
		t.Fatalf("hashed %d cases, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s: block hash %#x, want %s %#x", got[i].name, got[i].sum, w.name, w.sum)
		}
	}
}
