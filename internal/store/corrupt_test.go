package store

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// readAll fully exercises a store: header already validated by Open, then
// graph, labels, splits, and every feature shard. It returns the first
// error.
func readAll(st *Store) error {
	if _, err := st.LoadGraph(); err != nil {
		return err
	}
	c, err := NewCache(st, st.MaxShardBytes()*2, nil)
	if err != nil {
		return err
	}
	if _, err := st.Dataset(c); err != nil {
		return err
	}
	for id := 0; id < st.NumShards(); id++ {
		if _, err := st.LoadShard(id); err != nil {
			return err
		}
	}
	return nil
}

// Every single-byte corruption anywhere in the file must surface as a
// descriptive error somewhere between Open and a full read — never a
// panic, and never silently different data. The checksummed format makes
// this provable byte by byte; the test samples offsets across every
// region plus the structural hot spots.
func TestCorruptByteFlipMatrix(t *testing.T) {
	ds := genDataset(t, 300, 8, 11)
	goodPath := packTemp(t, ds, 64)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	offsets := []int{0, 1, len(headMagic) - 1} // head magic
	for off := len(headMagic); off < len(good); off += len(good)/97 + 1 {
		offsets = append(offsets, off)
	}
	// Trailer structure: header offset, length, CRC, tail magic.
	for off := len(good) - trailerSize; off < len(good); off++ {
		offsets = append(offsets, off)
	}

	dir := t.TempDir()
	for _, off := range offsets {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		path := filepath.Join(dir, "bad.betty")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: panicked: %v", off, r)
				}
			}()
			st, err := Open(path)
			if err == nil {
				err = readAll(st)
				st.Close()
			}
			if err == nil {
				t.Fatalf("offset %d: corruption read back cleanly", off)
			}
			if err.Error() == "" {
				t.Fatalf("offset %d: empty error message", off)
			}
		}()
	}
}

// Truncations at every structural boundary (and a few arbitrary cuts)
// must fail Open with a descriptive error, not panic and not succeed.
func TestTruncationMatrix(t *testing.T) {
	ds := genDataset(t, 300, 8, 12)
	goodPath := packTemp(t, ds, 64)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, len(headMagic), trailerSize - 1, trailerSize,
		len(good) / 3, len(good) / 2, len(good) - trailerSize, len(good) - 1}
	dir := t.TempDir()
	for _, n := range cuts {
		path := filepath.Join(dir, "trunc.betty")
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panicked: %v", n, r)
				}
			}()
			st, err := Open(path)
			if err == nil {
				st.Close()
				t.Fatalf("cut %d: truncated file opened cleanly", n)
			}
		}()
	}
}

// A header whose checksum is valid but whose payload reference is huge
// (Off+Len overflows int64) must fail Open, not pass it and panic in the
// first read.
func TestHostileBlobLength(t *testing.T) {
	ds := genDataset(t, 300, 8, 13)
	path := packTemp(t, ds, 64)
	st := openTemp(t, path)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := *st.hdr
	h.Labels.Len = math.MaxInt64
	hdr, hdrCRC, err := encodeHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	hdrOff := int64(binary.LittleEndian.Uint64(good[len(good)-trailerSize:]))
	bad := append(append([]byte(nil), good[:hdrOff]...), hdr...)
	trailer := append([]byte(nil), good[len(good)-trailerSize:]...)
	binary.LittleEndian.PutUint64(trailer[8:], uint64(len(hdr)))
	binary.LittleEndian.PutUint32(trailer[16:], hdrCRC)
	bad = append(bad, trailer...)
	badPath := filepath.Join(t.TempDir(), "hostile.betty")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("hostile blob length panicked: %v", r)
		}
	}()
	if bst, err := Open(badPath); err == nil {
		bst.Close()
		t.Fatal("a payload reference overflowing the file opened cleanly")
	}
}

// A clean file read through the corruption harness stays bitwise-exact —
// the control arm proving the matrix above fails for the right reason.
func TestCorruptControlArm(t *testing.T) {
	ds := genDataset(t, 300, 8, 11)
	st := openTemp(t, packTemp(t, ds, 64))
	if err := readAll(st); err != nil {
		t.Fatal(err)
	}
	sh, err := st.LoadShard(0)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range sh.Row(0) {
		if math.Float32bits(v) != math.Float32bits(ds.Features.At(0, j)) {
			t.Fatal("clean read not bitwise identical")
		}
	}
}
