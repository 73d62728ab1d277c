package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/tensor"
)

// PackConfig parameterizes the converter.
type PackConfig struct {
	// ShardRows is the feature-shard height (default DefaultShardRows).
	// Smaller shards mean finer-grained eviction; the cache budget must
	// hold at least one shard.
	ShardRows int
}

// Pack writes ds to path in the store format. The feature rows are pulled
// through the dataset's active FeatureSource, so an already-disk-backed
// dataset can be repacked (e.g. with a different shard height).
func Pack(path string, ds *dataset.Dataset, cfg PackConfig) (err error) {
	if cfg.ShardRows <= 0 {
		cfg.ShardRows = DefaultShardRows
	}
	src := ds.FeatureSource()
	n := int(ds.Graph.NumNodes())
	if src.Rows() != n {
		return fmt.Errorf("store: %d feature rows for %d graph nodes", src.Rows(), n)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: closing %s: %w", path, cerr)
		}
	}()

	w := &countingWriter{w: f}
	if _, err := w.Write([]byte(headMagic)); err != nil {
		return fmt.Errorf("store: writing magic: %w", err)
	}
	writeBlob := func(payload []byte) (blobRef, error) {
		ref := blobRef{Off: w.n, Len: int64(len(payload)), CRC: crc32.ChecksumIEEE(payload)}
		_, werr := w.Write(payload)
		return ref, werr
	}

	h := &header{
		Version:    formatVersion,
		Name:       ds.Name,
		NumNodes:   n,
		Dim:        src.Dim(),
		NumClasses: ds.NumClasses,
		ShardRows:  cfg.ShardRows,
		HasWeights: ds.Graph.HasWeights(),
	}

	// Graph: edges re-materialized in edge-ID order so the rebuilt CSR/CSC
	// assigns identical edge IDs, then chunked.
	esrc, edst := ds.Graph.Edges()
	for lo := 0; lo < len(esrc); lo += chunkEdges {
		hi := lo + chunkEdges
		if hi > len(esrc) {
			hi = len(esrc)
		}
		var w32 []float32
		if h.HasWeights {
			w32 = make([]float32, hi-lo)
			for i := range w32 {
				w32[i] = ds.Graph.EdgeWeight(int32(lo + i))
			}
		}
		payload, perr := encodeEdgeChunk(esrc[lo:hi], edst[lo:hi], w32)
		if perr != nil {
			return perr
		}
		ref, werr := writeBlob(payload)
		if werr != nil {
			return fmt.Errorf("store: writing edge chunk: %w", werr)
		}
		h.EdgeChunks = append(h.EdgeChunks, ref)
	}
	if len(esrc) == 0 {
		// Zero-edge graphs still round-trip: one empty chunk keeps the
		// decoder's "at least one chunk" shape without special cases.
		payload, _ := encodeEdgeChunk(nil, nil, nil)
		ref, werr := writeBlob(payload)
		if werr != nil {
			return fmt.Errorf("store: writing edge chunk: %w", werr)
		}
		h.EdgeChunks = append(h.EdgeChunks, ref)
	}

	for _, blob := range []struct {
		ref *blobRef
		vs  []int32
	}{
		{&h.Labels, ds.Labels},
		{&h.Train, ds.TrainIdx},
		{&h.Val, ds.ValIdx},
		{&h.Test, ds.TestIdx},
	} {
		ref, werr := writeBlob(encodeInt32s(blob.vs))
		if werr != nil {
			return fmt.Errorf("store: writing int32 blob: %w", werr)
		}
		*blob.ref = ref
	}

	// Feature shards: gather each row range through the source into a
	// staging tensor, then encode. The staging tensor is one shard tall,
	// so packing never materializes the full matrix.
	nids := make([]int32, 0, cfg.ShardRows)
	for id := 0; id < h.numShards(); id++ {
		start, end := h.shardRowRange(id)
		nids = nids[:0]
		for r := start; r < end; r++ {
			nids = append(nids, int32(r))
		}
		stage := tensor.New(len(nids), h.Dim)
		if gerr := src.GatherInto(stage, nids); gerr != nil {
			return fmt.Errorf("store: packing shard %d: %w", id, gerr)
		}
		payload, perr := EncodeShard(len(nids), h.Dim, stage.Data)
		if perr != nil {
			return perr
		}
		ref, werr := writeBlob(payload)
		if werr != nil {
			return fmt.Errorf("store: writing shard %d: %w", id, werr)
		}
		h.Shards = append(h.Shards, ref)
	}

	hdr, hdrCRC, err := encodeHeader(h)
	if err != nil {
		return err
	}
	hdrOff := w.n
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	trailer := make([]byte, trailerSize)
	binary.LittleEndian.PutUint64(trailer[0:], uint64(hdrOff))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(len(hdr)))
	binary.LittleEndian.PutUint32(trailer[16:], hdrCRC)
	copy(trailer[20:], tailMagic)
	if _, err := w.Write(trailer); err != nil {
		return fmt.Errorf("store: writing trailer: %w", err)
	}
	return nil
}

// countingWriter tracks the write offset for blobRef bookkeeping.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Store is an open store file. Metadata is validated at Open; payloads are
// read and checksum-verified on demand. ReadAt is used for all payload
// reads, so a Store is safe for concurrent loads.
type Store struct {
	f    *os.File
	path string
	size int64
	hdr  *header
}

// Open validates path's framing — both magics, the trailer, the header
// checksum and geometry, and every payload reference — and returns a
// handle. Any inconsistency is a descriptive error naming what failed.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	s, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(f *os.File, path string) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	size := fi.Size()
	if size < int64(len(headMagic)+trailerSize) {
		return nil, fmt.Errorf("store: %s is %d bytes, smaller than the minimal framing (%d)",
			path, size, len(headMagic)+trailerSize)
	}
	magic := make([]byte, len(headMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		return nil, fmt.Errorf("store: reading magic of %s: %w", path, err)
	}
	if string(magic) != headMagic {
		return nil, fmt.Errorf("store: %s is not a betty store (bad magic %q)", path, magic)
	}
	trailer := make([]byte, trailerSize)
	if _, err := f.ReadAt(trailer, size-int64(trailerSize)); err != nil {
		return nil, fmt.Errorf("store: reading trailer of %s: %w", path, err)
	}
	if got := string(trailer[20:]); got != tailMagic {
		return nil, fmt.Errorf("store: %s trailer magic %q, want %q — truncated or overwritten file", path, got, tailMagic)
	}
	hdrOff := int64(binary.LittleEndian.Uint64(trailer[0:]))
	hdrLen := int64(binary.LittleEndian.Uint64(trailer[8:]))
	hdrCRC := binary.LittleEndian.Uint32(trailer[16:])
	if hdrOff < int64(len(headMagic)) || hdrLen < 0 || hdrOff+hdrLen != size-int64(trailerSize) {
		return nil, fmt.Errorf("store: %s header reference [%d,+%d) is inconsistent with file size %d",
			path, hdrOff, hdrLen, size)
	}
	hdrBlob := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdrBlob, hdrOff); err != nil {
		return nil, fmt.Errorf("store: reading header of %s: %w", path, err)
	}
	if got := crc32.ChecksumIEEE(hdrBlob); got != hdrCRC {
		return nil, fmt.Errorf("store: %s header checksum mismatch: file says %08x, content hashes to %08x",
			path, hdrCRC, got)
	}
	hdr, err := decodeHeader(hdrBlob)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s := &Store{f: f, path: path, size: size, hdr: hdr}
	refs := append([]blobRef{hdr.Labels, hdr.Train, hdr.Val, hdr.Test}, hdr.EdgeChunks...)
	refs = append(refs, hdr.Shards...)
	for _, ref := range refs {
		// ref.Off+ref.Len can overflow on a hostile header; hdrOff-ref.Off
		// cannot, as both are at least len(headMagic) here.
		if ref.Off < int64(len(headMagic)) || ref.Len < 0 || ref.Len > hdrOff-ref.Off {
			return nil, fmt.Errorf("store: %s payload reference [%d,+%d) escapes the payload region [%d,%d)",
				path, ref.Off, ref.Len, len(headMagic), hdrOff)
		}
	}
	return s, nil
}

// Close releases the file handle.
func (s *Store) Close() error { return s.f.Close() }

// Name returns the packed dataset's name.
func (s *Store) Name() string { return s.hdr.Name }

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return s.hdr.NumNodes }

// Dim returns the feature width.
func (s *Store) Dim() int { return s.hdr.Dim }

// NumShards returns the feature-shard count.
func (s *Store) NumShards() int { return s.hdr.numShards() }

// ShardRows returns the configured shard height.
func (s *Store) ShardRows() int { return s.hdr.ShardRows }

// MaxShardBytes returns the decoded byte size of the largest shard — the
// minimum viable cache budget.
func (s *Store) MaxShardBytes() int64 {
	rows := s.hdr.ShardRows
	if s.hdr.NumNodes < rows {
		rows = s.hdr.NumNodes
	}
	return int64(rows) * int64(s.hdr.Dim) * 4
}

// FeatureBytes returns the decoded size of the full feature matrix — what
// an in-RAM dataset would keep resident.
func (s *Store) FeatureBytes() int64 {
	return int64(s.hdr.NumNodes) * int64(s.hdr.Dim) * 4
}

// readBlob reads and checksum-verifies one payload.
func (s *Store) readBlob(ref blobRef, what string) ([]byte, error) {
	blob := make([]byte, ref.Len)
	if _, err := s.f.ReadAt(blob, ref.Off); err != nil {
		return nil, fmt.Errorf("store: reading %s of %s: %w", what, s.path, err)
	}
	if got := crc32.ChecksumIEEE(blob); got != ref.CRC {
		return nil, fmt.Errorf("store: %s of %s is corrupt: checksum %08x, header expects %08x",
			what, s.path, got, ref.CRC)
	}
	return blob, nil
}

// Shard is one decoded feature shard: global rows [Start, Start+Rows).
type Shard struct {
	ID    int
	Start int
	Rows  int
	Dim   int
	Data  []float32
}

// Row returns the feature row of global node nid, which must lie in the
// shard's range.
func (sh *Shard) Row(nid int) []float32 {
	r := nid - sh.Start
	return sh.Data[r*sh.Dim : (r+1)*sh.Dim]
}

// Bytes returns the decoded payload size charged to the cache ledger.
func (sh *Shard) Bytes() int64 { return int64(sh.Rows) * int64(sh.Dim) * 4 }

// LoadShard reads, verifies, and decodes shard id. Cache users go through
// Cache.Pin instead; LoadShard is the uncached path (and the packer test
// surface).
func (s *Store) LoadShard(id int) (*Shard, error) { return s.loadShard(id, nil) }

// loadShard is LoadShard reading into spare when its capacity holds the
// shard, so a cache miss can reuse an evicted shard's memory. The payload
// is read straight into the returned []float32 viewed as bytes, so beyond
// the two reads a load costs the CRC over every byte of the blob and, on
// a big-endian host only, a byte swap per word. The tests hold it bitwise
// to DecodeShard, the format's reference decoder.
func (s *Store) loadShard(id int, spare []float32) (*Shard, error) {
	if id < 0 || id >= s.NumShards() {
		return nil, fmt.Errorf("store: shard %d out of range [0,%d)", id, s.NumShards())
	}
	ref := s.hdr.Shards[id]
	start, end := s.hdr.shardRowRange(id)
	rows, dim := end-start, s.hdr.Dim
	// Size the payload from the blob's length, which Open bounded by the
	// file size, never from a product of header fields that could overflow.
	// A length the header geometry cannot explain would fail the shape
	// check below anyway; failing here just skips the read.
	words := (ref.Len - 8) / 4
	if ref.Len < 8 || (ref.Len-8)%4 != 0 || words%int64(dim) != 0 || words/int64(dim) != int64(rows) {
		return nil, fmt.Errorf("store: feature shard %d of %s carries %d bytes, header expects %dx%d values",
			id, s.path, ref.Len, rows, dim)
	}
	var head [8]byte
	if _, err := s.f.ReadAt(head[:], ref.Off); err != nil {
		return nil, fmt.Errorf("store: reading feature shard %d of %s: %w", id, s.path, err)
	}
	data := spare
	if int64(cap(data)) < words {
		data = make([]float32, words)
	}
	data = data[:words]
	payload := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
	if _, err := s.f.ReadAt(payload, ref.Off+8); err != nil {
		return nil, fmt.Errorf("store: reading feature shard %d of %s: %w", id, s.path, err)
	}
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, head[:]), crc32.IEEETable, payload)
	if crc != ref.CRC {
		return nil, fmt.Errorf("store: feature shard %d of %s is corrupt: checksum %08x, header expects %08x",
			id, s.path, crc, ref.CRC)
	}
	r, d := binary.LittleEndian.Uint32(head[0:]), binary.LittleEndian.Uint32(head[4:])
	if int64(r) != int64(rows) || int64(d) != int64(dim) {
		return nil, fmt.Errorf("store: shard %d of %s decodes to %dx%d, header expects %dx%d",
			id, s.path, r, d, rows, dim)
	}
	if !littleEndianHost {
		swapWords(data)
	}
	return &Shard{ID: id, Start: start, Rows: rows, Dim: dim, Data: data}, nil
}

// littleEndianHost reports whether a float32's in-memory bytes are the
// format's little-endian encoding, so a payload read into a []float32 is
// already decoded.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// swapWords reverses the bytes of every word in place: on a big-endian
// host it turns a little-endian payload read as raw memory into floats.
func swapWords(data []float32) {
	for i, v := range data {
		data[i] = math.Float32frombits(bits.ReverseBytes32(math.Float32bits(v)))
	}
}

// loadInt32s reads one int32 blob.
func (s *Store) loadInt32s(ref blobRef, what string) ([]int32, error) {
	blob, err := s.readBlob(ref, what)
	if err != nil {
		return nil, err
	}
	vs, err := decodeInt32s(blob)
	if err != nil {
		return nil, fmt.Errorf("%w (%s of %s)", err, what, s.path)
	}
	return vs, nil
}

// LoadGraph rebuilds the CSR/CSC graph from the edge chunks. Edge IDs are
// identical to the packed graph's because chunks preserve edge-ID order.
func (s *Store) LoadGraph() (*graph.Graph, error) {
	var src, dst []int32
	var w []float32
	for i, ref := range s.hdr.EdgeChunks {
		blob, err := s.readBlob(ref, fmt.Sprintf("edge chunk %d", i))
		if err != nil {
			return nil, err
		}
		cs, cd, cw, err := decodeEdgeChunk(blob)
		if err != nil {
			return nil, fmt.Errorf("%w (edge chunk %d of %s)", err, i, s.path)
		}
		if s.hdr.HasWeights != (cw != nil) && len(cs) > 0 {
			return nil, fmt.Errorf("store: edge chunk %d of %s weight presence disagrees with header", i, s.path)
		}
		src = append(src, cs...)
		dst = append(dst, cd...)
		w = append(w, cw...)
	}
	if !s.hdr.HasWeights {
		w = nil
	}
	g, err := graph.FromEdgesWeighted(int32(s.hdr.NumNodes), src, dst, w)
	if err != nil {
		return nil, fmt.Errorf("store: rebuilding graph of %s: %w", s.path, err)
	}
	return g, nil
}

// Dataset assembles a ready-to-train dataset whose graph, labels, and
// splits are loaded into RAM (they are small) and whose features stay on
// disk behind the given cache. The returned dataset's Features tensor is
// nil — the full matrix is never materialized.
func (s *Store) Dataset(c *Cache) (*dataset.Dataset, error) {
	if c == nil {
		return nil, fmt.Errorf("store: Dataset requires a cache (NewCache)")
	}
	if c.store != s {
		return nil, fmt.Errorf("store: cache belongs to a different store")
	}
	g, err := s.LoadGraph()
	if err != nil {
		return nil, err
	}
	labels, err := s.loadInt32s(s.hdr.Labels, "labels")
	if err != nil {
		return nil, err
	}
	if len(labels) != s.hdr.NumNodes {
		return nil, fmt.Errorf("store: %d labels for %d nodes in %s", len(labels), s.hdr.NumNodes, s.path)
	}
	train, err := s.loadInt32s(s.hdr.Train, "train split")
	if err != nil {
		return nil, err
	}
	val, err := s.loadInt32s(s.hdr.Val, "val split")
	if err != nil {
		return nil, err
	}
	test, err := s.loadInt32s(s.hdr.Test, "test split")
	if err != nil {
		return nil, err
	}
	return &dataset.Dataset{
		Name:       s.hdr.Name,
		Graph:      g,
		Source:     NewFeatures(c),
		Labels:     labels,
		NumClasses: s.hdr.NumClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
	}, nil
}
