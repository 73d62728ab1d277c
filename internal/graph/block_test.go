package graph

import "testing"

// sampleBlock builds the paper's Figure 7 style 1-layer block by hand:
// destinations {8, 5}; node 8 aggregates {4, 5, 7, 11}, node 5 aggregates
// {4, 7}. Sources are dst-prefixed: [8, 5, 4, 7, 11].
func sampleBlock() *Block {
	return &Block{
		NumSrc:   5,
		NumDst:   2,
		Ptr:      []int64{0, 4, 6},
		SrcLocal: []int32{2, 1, 3, 4, 2, 3},
		EID:      []int32{0, 1, 2, 3, 4, 5},
		SrcNID:   []int32{8, 5, 4, 7, 11},
		DstNID:   []int32{8, 5},
	}
}

func TestBlockValidateOK(t *testing.T) {
	if err := sampleBlock().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Block)
	}{
		{"dst not src prefix", func(b *Block) { b.SrcNID[0] = 99 }},
		{"ptr too short", func(b *Block) { b.Ptr = b.Ptr[:2] }},
		{"ptr not covering", func(b *Block) { b.Ptr[2] = 3 }},
		{"ptr starts below zero", func(b *Block) { b.Ptr[0] = -1 }},
		{"eid length", func(b *Block) { b.EID = b.EID[:3] }},
		{"src out of range", func(b *Block) { b.SrcLocal[0] = 42 }},
		{"src negative", func(b *Block) { b.SrcLocal[0] = -1 }},
		{"more dst than src", func(b *Block) { b.NumSrc = 1 }},
	}
	for _, tc := range cases {
		b := sampleBlock()
		tc.mutate(b)
		if b.Validate() == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func TestBlockDegreesAndEdges(t *testing.T) {
	b := sampleBlock()
	if b.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d", b.NumEdges())
	}
	if b.InDegree(0) != 4 || b.InDegree(1) != 2 {
		t.Fatalf("degrees = %d, %d", b.InDegree(0), b.InDegree(1))
	}
}

func TestEdgePairs(t *testing.T) {
	b := sampleBlock()
	src, dst := b.EdgePairs()
	if len(src) != 6 || len(dst) != 6 {
		t.Fatal("wrong pair count")
	}
	// first 4 edges belong to dst 0, last 2 to dst 1
	for i := 0; i < 4; i++ {
		if dst[i] != 0 {
			t.Fatalf("edge %d dst = %d", i, dst[i])
		}
	}
	for i := 4; i < 6; i++ {
		if dst[i] != 1 {
			t.Fatalf("edge %d dst = %d", i, dst[i])
		}
	}
	if src[0] != 2 || src[5] != 3 {
		t.Fatalf("src pairs wrong: %v", src)
	}
}

func TestBlockInDegreeHistogram(t *testing.T) {
	b := sampleBlock()
	h := b.InDegreeHistogram(3)
	// degrees 4 and 2 -> bucket>=3 gets 1, bucket2 gets 1
	if h[2] != 1 || h[3] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestDegreeBuckets(t *testing.T) {
	b := sampleBlock()
	buckets := b.DegreeBuckets()
	if len(buckets[4]) != 1 || buckets[4][0] != 0 {
		t.Fatalf("bucket 4 = %v", buckets[4])
	}
	if len(buckets[2]) != 1 || buckets[2][0] != 1 {
		t.Fatalf("bucket 2 = %v", buckets[2])
	}
}

func TestStats(t *testing.T) {
	inner := &Block{
		NumSrc: 8, NumDst: 5,
		Ptr:      []int64{0, 1, 2, 3, 4, 5},
		SrcLocal: []int32{5, 6, 7, 0, 1},
		EID:      []int32{-1, -1, -1, -1, -1},
		SrcNID:   []int32{8, 5, 4, 7, 11, 1, 2, 3},
		DstNID:   []int32{8, 5, 4, 7, 11},
	}
	outer := sampleBlock()
	s := Stats([]*Block{inner, outer})
	if s.NumInput != 8 {
		t.Fatalf("NumInput = %d", s.NumInput)
	}
	if s.NumOutput != 2 {
		t.Fatalf("NumOutput = %d", s.NumOutput)
	}
	if s.TotalEdges != 11 {
		t.Fatalf("TotalEdges = %d", s.TotalEdges)
	}
	if s.TotalNodes != 8+5+2 {
		t.Fatalf("TotalNodes = %d", s.TotalNodes)
	}
	if len(s.DstPerLayer) != 2 || s.DstPerLayer[0] != 5 || s.DstPerLayer[1] != 2 {
		t.Fatalf("DstPerLayer = %v", s.DstPerLayer)
	}
}

func TestStatsEmpty(t *testing.T) {
	s := Stats(nil)
	if s.NumInput != 0 || s.TotalEdges != 0 {
		t.Fatal("empty stats should be zero")
	}
}
