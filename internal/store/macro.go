package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"slices"
	"sync"

	"betty/internal/graph"
	"betty/internal/obs"
)

const macroMagic = "BETYMB1\n"

// MacroCache persists sampled frontiers (the full-batch block list) so an
// epoch can reuse the macrobatch sampled by a previous epoch — or a
// previous run — instead of resampling it (BatchGNN's precomputed
// macrobatch). The repository's sampler derives every random stream from
// (seed, seeds[0], layer), so a reused frontier is bitwise identical to
// what resampling would have produced; persistence trades the sampling
// walk for one sequential read.
//
// Safety: the file embeds the sampler configuration key and a hash of the
// seed set. Loading with a different sampler config or seed set fails
// loudly — a stale macrobatch silently training on the wrong frontier is
// exactly the corruption this layer exists to refuse.
type MacroCache struct {
	path string
	key  uint64
	reg  *obs.Registry

	mu sync.Mutex
	// mem holds frontiers already loaded or saved this process, keyed by
	// seed-set hash: epochs after the first hit RAM, not disk.
	mem map[uint64][]*graph.Block
}

// NewMacroCache persists frontiers at path, bound to the given sampler
// configuration key (sample.Sampler.ConfigKey). The registry may be nil.
func NewMacroCache(path string, key uint64, reg *obs.Registry) *MacroCache {
	return &MacroCache{path: path, key: key, reg: reg, mem: make(map[uint64][]*graph.Block)}
}

// macroFile is the gob payload: one persisted frontier.
type macroFile struct {
	Version   int
	Key       uint64
	SeedsHash uint64
	Blocks    []macroBlock
}

// macroBlock mirrors graph.Block's exported fields (the unexported memo
// caches rebuild lazily after load).
type macroBlock struct {
	NumSrc, NumDst int
	Ptr            []int64
	SrcLocal       []int32
	EID            []int32
	EdgeWt         []float32
	SrcNID         []int32
	DstNID         []int32
}

// hashSeeds folds the seed list through splitmix64 so reordered or edited
// seed sets collide with negligible probability.
func hashSeeds(seeds []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(seeds))
	for _, s := range seeds {
		h ^= uint64(uint32(s))
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Load returns the persisted frontier for seeds, with ok=false when
// nothing has been persisted yet (first epoch). A file whose sampler key
// or seed hash disagrees is an error, not a miss.
func (m *MacroCache) Load(seeds []int32) ([]*graph.Block, bool, error) {
	sh := hashSeeds(seeds)
	m.mu.Lock()
	defer m.mu.Unlock()
	if blocks, ok := m.mem[sh]; ok {
		m.reg.Add("macro.reuse", 1)
		return blocks, true, nil
	}
	blob, err := os.ReadFile(m.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading macrobatch %s: %w", m.path, err)
	}
	mf, err := decodeMacro(blob, m.path)
	if err != nil {
		return nil, false, err
	}
	if mf.Key != m.key {
		return nil, false, fmt.Errorf("store: macrobatch %s was sampled under config key %016x, this run uses %016x — "+
			"delete the file or match the sampler configuration", m.path, mf.Key, m.key)
	}
	if mf.SeedsHash != sh {
		return nil, false, fmt.Errorf("store: macrobatch %s covers a different seed set (hash %016x, want %016x)",
			m.path, mf.SeedsHash, sh)
	}
	blocks := make([]*graph.Block, len(mf.Blocks))
	for i, mb := range mf.Blocks {
		blocks[i] = &graph.Block{
			NumSrc: mb.NumSrc, NumDst: mb.NumDst,
			Ptr: mb.Ptr, SrcLocal: mb.SrcLocal, EID: mb.EID, EdgeWt: mb.EdgeWt,
			SrcNID: mb.SrcNID, DstNID: mb.DstNID,
		}
	}
	if err := checkFrontier(blocks); err != nil {
		return nil, false, fmt.Errorf("store: macrobatch %s is malformed: %w", m.path, err)
	}
	m.mem[sh] = blocks
	m.reg.Add("macro.reuse", 1)
	m.reg.Add("macro.disk_loads", 1)
	return blocks, true, nil
}

// checkFrontier is the structural check a decoded frontier must pass
// before anything indexes through it: the checksum proves the bytes are
// the ones written, not that they form a batch. Every block must be valid
// on its own, and each block's destinations must be the next block's
// sources, as the sampler chains them.
func checkFrontier(blocks []*graph.Block) error {
	if len(blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	for l, b := range blocks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", l, err)
		}
		if l+1 < len(blocks) && !slices.Equal(b.DstNID, blocks[l+1].SrcNID) {
			return fmt.Errorf("layer %d's %d destinations are not layer %d's %d sources",
				l, b.NumDst, l+1, blocks[l+1].NumSrc)
		}
	}
	return nil
}

// Save persists the frontier sampled for seeds and primes the in-memory
// reuse map. The write is atomic (temp file + rename), so a crash mid-save
// leaves either the old frontier or none.
func (m *MacroCache) Save(seeds []int32, blocks []*graph.Block) error {
	sh := hashSeeds(seeds)
	mf := macroFile{Version: formatVersion, Key: m.key, SeedsHash: sh, Blocks: make([]macroBlock, len(blocks))}
	for i, b := range blocks {
		mf.Blocks[i] = macroBlock{
			NumSrc: b.NumSrc, NumDst: b.NumDst,
			Ptr: b.Ptr, SrcLocal: b.SrcLocal, EID: b.EID, EdgeWt: b.EdgeWt,
			SrcNID: b.SrcNID, DstNID: b.DstNID,
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&mf); err != nil {
		return fmt.Errorf("store: encoding macrobatch: %w", err)
	}
	blob := make([]byte, len(macroMagic)+4, len(macroMagic)+4+payload.Len())
	copy(blob, macroMagic)
	binary.LittleEndian.PutUint32(blob[len(macroMagic):], crc32.ChecksumIEEE(payload.Bytes()))
	blob = append(blob, payload.Bytes()...)
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("store: writing macrobatch: %w", err)
	}
	if err := os.Rename(tmp, m.path); err != nil {
		return fmt.Errorf("store: installing macrobatch: %w", err)
	}
	m.mu.Lock()
	m.mem[sh] = blocks
	m.mu.Unlock()
	m.reg.Add("macro.saves", 1)
	return nil
}

// decodeMacro validates framing and checksum and parses the payload.
func decodeMacro(blob []byte, path string) (*macroFile, error) {
	if len(blob) < len(macroMagic)+4 {
		return nil, fmt.Errorf("store: macrobatch %s is %d bytes, shorter than its framing", path, len(blob))
	}
	if string(blob[:len(macroMagic)]) != macroMagic {
		return nil, fmt.Errorf("store: %s is not a betty macrobatch (bad magic %q)", path, blob[:len(macroMagic)])
	}
	crc := binary.LittleEndian.Uint32(blob[len(macroMagic):])
	payload := blob[len(macroMagic)+4:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("store: macrobatch %s is corrupt: checksum %08x, file expects %08x", path, got, crc)
	}
	var mf macroFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&mf); err != nil {
		return nil, fmt.Errorf("store: decoding macrobatch %s: %w", path, err)
	}
	if mf.Version != formatVersion {
		return nil, fmt.Errorf("store: macrobatch %s is format version %d, this build reads version %d",
			path, mf.Version, formatVersion)
	}
	return &mf, nil
}
