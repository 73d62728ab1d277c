package store

import (
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"betty/internal/dataset"
)

// wantShard decodes shard id's raw blob with DecodeShard, the format's
// reference decoder, and checks sh against it bit for bit.
func wantShard(t *testing.T, st *Store, sh *Shard) {
	t.Helper()
	blob, err := st.readBlob(st.hdr.Shards[sh.ID], "reference blob")
	if err != nil {
		t.Fatal(err)
	}
	rows, dim, data, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rows != sh.Rows || dim != sh.Dim || len(data) != len(sh.Data) {
		t.Fatalf("shard %d: %dx%d (%d values), reference %dx%d (%d values)",
			sh.ID, sh.Rows, sh.Dim, len(sh.Data), rows, dim, len(data))
	}
	for i := range data {
		if math.Float32bits(sh.Data[i]) != math.Float32bits(data[i]) {
			t.Fatalf("shard %d value %d: %08x, reference %08x",
				sh.ID, i, math.Float32bits(sh.Data[i]), math.Float32bits(data[i]))
		}
	}
}

// sameBuffer reports whether a and b start at the same element.
func sameBuffer(a, b []float32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// A one-shard budget makes every Pin a miss that evicts the previous
// shard and reads into its buffer. Alternating full shards with the short
// remainder shard makes a too-small spare fall back to a fresh slice, and
// a remainder load reuse a full buffer. Each pinned shard must match the
// reference decoder bitwise. Then a corrupt shard must fail its checksum,
// leave nothing charged, and hand the buffer to the next valid load.
func TestRecycledPinMatchesDecode(t *testing.T) {
	ds := genDataset(t, 300, 8, 31)
	path := packTemp(t, ds, 64) // shards 0..3 of 64 rows, shard 4 of 44
	st := openTemp(t, path)
	cache, err := NewCache(st, st.MaxShardBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := st.NumShards() - 1
	if rows := st.NumNodes() - last*st.ShardRows(); rows >= st.ShardRows() {
		t.Fatalf("fixture has no short remainder shard (%d rows)", rows)
	}
	pin := func(id int) []float32 {
		t.Helper()
		sh, err := cache.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Unpin(sh)
		wantShard(t, st, sh)
		return sh.Data
	}
	for round := 0; round < 2; round++ {
		for id := 0; id < last; id++ {
			pin(last)
			pin(id)
		}
	}

	// Corrupt one payload byte of shard 1 in the open file.
	full := pin(0)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := st.hdr.Shards[1].Off + 8 + 5
	var b [1]byte
	if _, err := st.f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Pin(1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt shard pinned with err=%v, want a checksum error", err)
	}
	if got := cache.ResidentBytes(); got != 0 {
		t.Fatalf("failed load left %d bytes charged", got)
	}
	if !sameBuffer(cache.spare, full) {
		t.Fatal("failed load did not return the evicted shard's buffer")
	}
	if got := pin(2); !sameBuffer(got, full) {
		t.Fatal("next load did not read into the returned buffer")
	}
}

// alternatingMisses packs two equal shards behind a one-shard budget, so
// pinning them in turn misses every time and each miss evicts the other.
func alternatingMisses(t testing.TB, ds *dataset.Dataset, shardRows int) (*Cache, func() error) {
	t.Helper()
	st := openTemp(t, packTemp(t, ds, shardRows))
	cache, err := NewCache(st, st.MaxShardBytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	return cache, func() error {
		sh, err := cache.Pin(id)
		if err != nil {
			return err
		}
		cache.Unpin(sh)
		id ^= 1
		return nil
	}
}

// A steady-state miss reads into the evicted shard's buffer, so it
// allocates bookkeeping only, never a payload. A fresh payload here would
// be 32 KiB per miss.
func TestPinMissRecyclesPayload(t *testing.T) {
	const misses = 64
	_, miss := alternatingMisses(t, genDataset(t, 256, 64, 33), 128)
	for i := 0; i < 4; i++ {
		if err := miss(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		if err := miss(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / misses; per > 4<<10 {
		t.Fatalf("%d bytes allocated per steady-state miss, want <= 4 KiB", per)
	}
}

// BenchmarkCachePinMiss times one shard miss at steady state: two 512 x
// 500 shards behind a one-shard budget, pinned in turn.
func BenchmarkCachePinMiss(b *testing.B) {
	cache, miss := alternatingMisses(b, genDataset(b, 1024, 500, 34), 512)
	b.SetBytes(cache.store.MaxShardBytes())
	b.ReportAllocs()
	for i := 0; i < 2; i++ {
		if err := miss(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := miss(); err != nil {
			b.Fatal(err)
		}
	}
}

// swapWords is the whole big-endian decode: a payload read as raw memory
// on such a host holds each little-endian word byte-reversed, and the swap
// must turn it into DecodeShard's floats bit for bit, NaN payloads
// included.
func TestSwapWordsMatchesDecode(t *testing.T) {
	vals := []float32{0, 1, -2.5, float32(math.Inf(1)), math.Float32frombits(0x7fc00123),
		math.Float32frombits(0x00000001), math.Float32frombits(0xdeadbeef)}
	blob, err := EncodeShard(1, len(vals), vals)
	if err != nil {
		t.Fatal(err)
	}
	_, _, want, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(vals))
	for i := range got {
		got[i] = math.Float32frombits(binary.BigEndian.Uint32(blob[8+4*i:]))
	}
	swapWords(got)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("word %d: %08x, DecodeShard gives %08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
