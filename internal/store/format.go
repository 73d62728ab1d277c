// Package store is the out-of-core dataset layer: a single-file, versioned,
// checksummed on-disk format (chunked CSR edge lists + partition-aligned
// feature shards) and a budget-pinned shard cache that bounds the resident
// feature footprint by a configured byte budget instead of the dataset
// size. The layout follows Armada's memory-efficient store and BatchGNN's
// partition-aligned CPU shards (see PAPERS.md): features are split into
// fixed-height row shards so a micro-batch gather touches only the shards
// its frontier lands in, and every resident shard byte is charged to a
// device.Device byte ledger whose capacity is the budget — residency can
// never exceed the budget by construction, and the ledger's peak is the
// proof the tests assert.
//
// File layout (all integers little-endian):
//
//	magic "BETYST1\n"
//	blob*            payloads written sequentially: edge chunks, labels,
//	                 splits, feature shards — each CRC32-checksummed
//	gob(header)      the table of contents: dataset metadata + one
//	                 blobRef{Off,Len,CRC} per payload
//	trailer          headerOff int64 | headerLen int64 | headerCRC uint32 |
//	                 tail magic "BETYEND\n"
//
// The header lives at the end so Pack streams payloads without knowing
// their count up front; Open reads the trailer first, validates both
// magics and the header checksum, then validates every blobRef against the
// file size. Payload checksums are verified on every load, so corruption
// surfaces as a descriptive error at the first touch — never a panic,
// never silent zeros.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// formatVersion is bumped on any incompatible layout change; Open
	// rejects mismatches loudly.
	formatVersion = 1

	headMagic = "BETYST1\n"
	tailMagic = "BETYEND\n"

	// trailerSize is headerOff + headerLen + headerCRC + tail magic.
	trailerSize = 8 + 8 + 4 + len(tailMagic)

	// DefaultShardRows is the feature-shard height used when the packer is
	// not told otherwise (BETTY_STORE_SHARD_ROWS).
	DefaultShardRows = 1024

	// chunkEdges bounds the edges per graph chunk.
	chunkEdges = 1 << 18
)

// blobRef locates one checksummed payload inside the store file.
type blobRef struct {
	Off int64
	Len int64
	CRC uint32
}

// header is the store's table of contents, gob-encoded at the end of the
// file. Field names are part of the format; renaming one is a version bump.
type header struct {
	Version    int
	Name       string
	NumNodes   int
	Dim        int
	NumClasses int
	// ShardRows is the row height of every feature shard except possibly
	// the last (the remainder shard).
	ShardRows  int
	HasWeights bool
	// EdgeChunks are the graph's edges in edge-ID order, chunked; Labels
	// and the three split blobs are int32 lists; Shards[i] holds feature
	// rows [i*ShardRows, min((i+1)*ShardRows, NumNodes)).
	EdgeChunks []blobRef
	Labels     blobRef
	Train      blobRef
	Val        blobRef
	Test       blobRef
	Shards     []blobRef
}

// numShards derives the shard count from the header geometry.
func (h *header) numShards() int {
	if h.ShardRows <= 0 {
		return 0
	}
	return (h.NumNodes + h.ShardRows - 1) / h.ShardRows
}

// shardRowRange returns the global row range [start, end) of shard id.
func (h *header) shardRowRange(id int) (start, end int) {
	start = id * h.ShardRows
	end = start + h.ShardRows
	if end > h.NumNodes {
		end = h.NumNodes
	}
	return start, end
}

// EncodeShard serializes one feature shard: u32 rows | u32 dim | rows*dim
// float32 values, little-endian, bit-exact (NaN payloads included, which
// is what lets the fuzz round-trip compare raw bits).
func EncodeShard(rows, dim int, data []float32) ([]byte, error) {
	if rows < 0 || dim < 0 {
		return nil, fmt.Errorf("store: negative shard shape %dx%d", rows, dim)
	}
	if len(data) != rows*dim {
		return nil, fmt.Errorf("store: shard payload has %d values, want %dx%d=%d",
			len(data), rows, dim, rows*dim)
	}
	out := make([]byte, 8+4*len(data))
	binary.LittleEndian.PutUint32(out[0:], uint32(rows))
	binary.LittleEndian.PutUint32(out[4:], uint32(dim))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[8+4*i:], math.Float32bits(v))
	}
	return out, nil
}

// DecodeShard parses an EncodeShard payload, validating the declared shape
// against the payload length. It never panics on malformed input.
func DecodeShard(blob []byte) (rows, dim int, data []float32, err error) {
	if len(blob) < 8 {
		return 0, 0, nil, fmt.Errorf("store: shard blob of %d bytes is shorter than its 8-byte shape header", len(blob))
	}
	rows = int(binary.LittleEndian.Uint32(blob[0:]))
	dim = int(binary.LittleEndian.Uint32(blob[4:]))
	// The product is computed in int64 so a hostile shape cannot overflow
	// into a small allocation.
	want := int64(rows) * int64(dim)
	if want > int64(len(blob)-8)/4 || int64(len(blob)-8) != want*4 {
		return 0, 0, nil, fmt.Errorf("store: shard declares %dx%d values but carries %d payload bytes",
			rows, dim, len(blob)-8)
	}
	data = make([]float32, want)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[8+4*i:]))
	}
	return rows, dim, data, nil
}

// encodeInt32s serializes an int32 list: u32 count | count int32 values.
func encodeInt32s(vs []int32) []byte {
	out := make([]byte, 4+4*len(vs))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(vs)))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4+4*i:], uint32(v))
	}
	return out
}

// decodeInt32s parses an encodeInt32s payload.
func decodeInt32s(blob []byte) ([]int32, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("store: int32 blob of %d bytes is shorter than its 4-byte count", len(blob))
	}
	n := int64(binary.LittleEndian.Uint32(blob[0:]))
	if int64(len(blob)-4) != n*4 {
		return nil, fmt.Errorf("store: int32 blob declares %d values but carries %d payload bytes", n, len(blob)-4)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(blob[4+4*i:]))
	}
	return out, nil
}

// encodeEdgeChunk serializes one run of edges: u32 count | u8 hasWeights |
// count src int32 | count dst int32 | [count weight float32].
func encodeEdgeChunk(src, dst []int32, w []float32) ([]byte, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("store: edge chunk src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	if w != nil && len(w) != len(src) {
		return nil, fmt.Errorf("store: edge chunk has %d weights for %d edges", len(w), len(src))
	}
	n := len(src)
	size := 5 + 8*n
	if w != nil {
		size += 4 * n
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint32(out[0:], uint32(n))
	if w != nil {
		out[4] = 1
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[5+4*i:], uint32(v))
	}
	for i, v := range dst {
		binary.LittleEndian.PutUint32(out[5+4*n+4*i:], uint32(v))
	}
	for i, v := range w {
		binary.LittleEndian.PutUint32(out[5+8*n+4*i:], math.Float32bits(v))
	}
	return out, nil
}

// decodeEdgeChunk parses an encodeEdgeChunk payload.
func decodeEdgeChunk(blob []byte) (src, dst []int32, w []float32, err error) {
	if len(blob) < 5 {
		return nil, nil, nil, fmt.Errorf("store: edge chunk of %d bytes is shorter than its 5-byte header", len(blob))
	}
	n := int64(binary.LittleEndian.Uint32(blob[0:]))
	hasW := blob[4] == 1
	want := n * 8
	if hasW {
		want += n * 4
	}
	if int64(len(blob)-5) != want {
		return nil, nil, nil, fmt.Errorf("store: edge chunk declares %d edges (weights=%v) but carries %d payload bytes",
			n, hasW, len(blob)-5)
	}
	src = make([]int32, n)
	dst = make([]int32, n)
	for i := range src {
		src[i] = int32(binary.LittleEndian.Uint32(blob[5+4*i:]))
	}
	off := 5 + 4*int(n)
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(blob[off+4*i:]))
	}
	if hasW {
		off += 4 * int(n)
		w = make([]float32, n)
		for i := range w {
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[off+4*i:]))
		}
	}
	return src, dst, w, nil
}

// encodeHeader gob-encodes the header and returns the bytes plus checksum.
func encodeHeader(h *header) ([]byte, uint32, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, 0, fmt.Errorf("store: encoding header: %w", err)
	}
	return buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes()), nil
}

// decodeHeader parses and validates a gob header blob.
func decodeHeader(blob []byte) (*header, error) {
	var h header
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&h); err != nil {
		return nil, fmt.Errorf("store: decoding header: %w", err)
	}
	if h.Version != formatVersion {
		return nil, fmt.Errorf("store: format version %d, this build reads version %d", h.Version, formatVersion)
	}
	if h.NumNodes < 0 || h.Dim <= 0 || h.ShardRows <= 0 || h.NumClasses <= 0 {
		return nil, fmt.Errorf("store: header geometry invalid: %d nodes, dim %d, shard rows %d, %d classes",
			h.NumNodes, h.Dim, h.ShardRows, h.NumClasses)
	}
	if got, want := len(h.Shards), h.numShards(); got != want {
		return nil, fmt.Errorf("store: header lists %d shards, geometry implies %d", got, want)
	}
	return &h, nil
}
