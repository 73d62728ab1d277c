package nn

import (
	"fmt"
	"testing"

	"betty/internal/graph"
	"betty/internal/rng"
	"betty/internal/tensor"
)

// tapeBlocks are the shapes a layer's TapeValues must cover: destinations
// of repeated, distinct and zero in-degree (so LSTM runs several buckets
// beside an isolated node), a block whose every destination has no edge
// (LSTM's no-bucket path), and a one-destination block. Sources are nodes
// 0..NumSrc-1 of a 10-node graph.
func tapeBlocks(t *testing.T, weighted bool) map[string]*graph.Block {
	t.Helper()
	bs := map[string]*graph.Block{
		"mixed": {NumSrc: 7, NumDst: 4, Ptr: []int64{0, 3, 3, 4, 7},
			SrcLocal: []int32{4, 5, 1, 6, 0, 2, 5}},
		"edgeless": {NumSrc: 3, NumDst: 2, Ptr: []int64{0, 0, 0}},
		"single":   {NumSrc: 3, NumDst: 1, Ptr: []int64{0, 2}, SrcLocal: []int32{1, 2}},
	}
	for name, b := range bs {
		for v := 0; v < b.NumSrc; v++ {
			b.SrcNID = append(b.SrcNID, int32(v))
		}
		b.DstNID = b.SrcNID[:b.NumDst]
		for range b.SrcLocal {
			b.EID = append(b.EID, -1)
			if weighted {
				b.EdgeWt = append(b.EdgeWt, 0.5+float32(len(b.EdgeWt)))
			}
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return bs
}

// TestTapeValuesMatchForward pins each layer's TapeValues to its Forward:
// for every layer kind, with and without the ReLU, on weighted and
// unweighted blocks of every tapeBlocks shape, 4·(out+rest) is exactly the
// bytes one Forward records on a fresh tape, out is its result, and only
// the LSTM aggregator's count depends on the degree buckets.
func TestTapeValuesMatchForward(t *testing.T) {
	g, err := graph.FromEdges(10, []int32{1, 2, 3, 4, 5, 6}, []int32{0, 0, 1, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	const in, out = 3, 5
	layers := map[string]BlockLayer{
		"sage-mean": NewSAGEConv(in, out, Mean, rng.New(1)),
		"sage-sum":  NewSAGEConv(in, out, Sum, rng.New(2)),
		"sage-pool": NewSAGEConv(in, out, Pool, rng.New(3)),
		"sage-lstm": NewSAGEConv(in, out, LSTM, rng.New(4)),
		"gcn":       NewGCNConv(g, in, out, rng.New(5)),
	}
	for heads := 1; heads <= 3; heads++ {
		layers[fmt.Sprintf("gat-concat-%dh", heads)] = NewGATConv(in, out, heads, true, rng.New(6))
		layers[fmt.Sprintf("gat-mean-%dh", heads)] = NewGATConv(in, out, heads, false, rng.New(7))
	}
	for _, weighted := range []bool{false, true} {
		for bname, b := range tapeBlocks(t, weighted) {
			for lname, layer := range layers {
				for _, relu := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/weighted=%v/relu=%v", lname, bname, weighted, relu), func(t *testing.T) {
						x := tensor.New(b.NumSrc, in)
						x.Randn(rng.New(8), 1)
						tp := tensor.NewTape()
						defer tp.Release()
						y := layer.Forward(tp, b, tensor.Leaf(x), relu)
						o, rest := layer.TapeValues(b, relu, true)
						if 4*(o+rest) != tp.ValueBytes() {
							t.Fatalf("TapeValues out %d + rest %d values = %d B, Forward recorded %d B",
								o, rest, 4*(o+rest), tp.ValueBytes())
						}
						if o != int64(y.Value.Len()) {
							t.Fatalf("out = %d values, Forward's result holds %d", o, y.Value.Len())
						}
						lo, lrest := layer.TapeValues(b, relu, false)
						if lo != o || (lname != "sage-lstm" && lrest != rest) || lrest > rest {
							t.Fatalf("without buckets (%d, %d), with (%d, %d)", lo, lrest, o, rest)
						}
					})
				}
			}
		}
	}
}
