package betty_test

// Block-byte pins: every array of the blocks the two samplers draw, of the
// micro-batches SliceBatch cuts, and of the sub-block a partial embedding-
// cache hit computes on, hashed against constants. A refactor of the
// sampling loop or the slicer must leave every byte where it was.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/graph"
	"betty/internal/nn"
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

// recLayer records the blocks and inputs it is applied to and returns
// zeros, so a forward through it exposes exactly what the caller built.
type recLayer struct {
	blocks []*graph.Block
	inputs []*tensor.Tensor
}

func (l *recLayer) Params() []*tensor.Var { return nil }

func (l *recLayer) Forward(_ *tensor.Tape, b *graph.Block, h *tensor.Var, _ bool) *tensor.Var {
	l.blocks = append(l.blocks, b)
	l.inputs = append(l.inputs, h.Value)
	return tensor.Leaf(tensor.New(b.NumDst, 1))
}

type recModel struct{ layers []nn.BlockLayer }

func (m recModel) BlockLayers() []nn.BlockLayer { return m.layers }

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

		// Partial hit: warm a reuse cache with one frontier, then forward an
		// overlapping one; layer 1 is applied to the sub-block of the missed
		// destinations, and its input rows reveal the source selection.
		c, err := embcache.New(embcache.Config{Mode: embcache.ModeReuse, BudgetBytes: device.MiB})
		if err != nil {
			t.Fatal(err)
		}
		l1 := &recLayer{}
		model := recModel{layers: []nn.BlockLayer{l1, &recLayer{}}}
		for _, s := range [][]int32{seeds[:6], {3, 41, 200, 201, 399}} {
			blocks, err := nw.Sample(g, s)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(blocks[0].NumSrc, 1)
			for i := range x.Data {
				x.Data[i] = float32(i)
			}
			if _, err := embcache.Forward(tensor.NewTape(), model, blocks, tensor.Leaf(x), c); err != nil {
				t.Fatal(err)
			}
			if len(l1.blocks) == 2 && l1.blocks[1].NumDst >= blocks[0].NumDst {
				t.Fatalf("second forward computed %d of %d rows: not a partial hit", l1.blocks[1].NumDst, blocks[0].NumDst)
			}
		}
		if len(l1.blocks) != 2 {
			t.Fatalf("layer 1 applied %d times over two forwards, want 2", len(l1.blocks))
		}
		sub := l1.blocks[1]
		h := fnv.New64a()
		hashBlock(h, sub)
		sel := make([]int32, len(l1.inputs[1].Data))
		for i, v := range l1.inputs[1].Data {
			sel[i] = int32(v)
		}
		hashInts(h, sel)
		got = append(got, pin{"PartialHit/" + tag, h.Sum64()})
	}

	want := []pin{
		{"Sampler/unweighted", 0xfdefe10977a1c108},
		{"NodeWise/unweighted", 0x904725af295d929d},
		{"SliceBatch/unweighted", 0x186bd122625b032f},
		{"PartialHit/unweighted", 0x82bdf5e60eadc71b},
		{"Sampler/weighted", 0xac8ad217eafe2988},
		{"NodeWise/weighted", 0xd30620967f05dadd},
		{"SliceBatch/weighted", 0xff002ad13c9e2568},
		{"PartialHit/weighted", 0x2da9ee8b5930cea4},
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
