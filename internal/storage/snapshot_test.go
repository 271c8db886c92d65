package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// countingWriter counts the Write calls that reach the file.
type countingWriter struct {
	w     io.Writer
	calls int
	bytes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	c.bytes += len(p)
	return c.w.Write(p)
}

// bigStore returns a store of n two-attribute tuples.
func bigStore(n int) *Store {
	r := core.NewRelation(dScheme("BIG"))
	ts := make([]*core.Tuple, n)
	for i := range ts {
		ts[i] = dTuple(r.Scheme(), fmt.Sprintf("key-%06d", i), int64(i))
	}
	if err := r.InsertBatch(ts); err != nil {
		panic(err)
	}
	st := NewStore()
	st.Put(r)
	return st
}

// TestSaveWritesPerBuffer: a save reaches the file in buffer-sized
// writes, not one write per encoded field. A store of at least 256 KiB
// must take at most ⌈size / 64 KiB⌉ + 2 writes; unbuffered, it takes
// one per u8, u32, u64 and string, tens of thousands here.
func TestSaveWritesPerBuffer(t *testing.T) {
	st := bigStore(4000)
	var cw *countingWriter
	defer func() { saveWrapWriter = nil }()
	saveWrapWriter = func(w io.Writer) io.Writer {
		cw = &countingWriter{w: w}
		return cw
	}
	if err := st.Save(filepath.Join(t.TempDir(), "big.hrdm")); err != nil {
		t.Fatal(err)
	}
	const buf = 64 << 10
	if cw.bytes < 256<<10 {
		t.Fatalf("store is %d bytes, want at least 256 KiB", cw.bytes)
	}
	if limit := (cw.bytes+buf-1)/buf + 2; cw.calls > limit {
		t.Fatalf("save of %d bytes took %d writes, want at most %d", cw.bytes, cw.calls, limit)
	}
}

// flipStore is the bit-flip fixture: two relations of mixed value kinds
// and a non-zero LSN, so every field of the header and of a record is
// present.
func flipStore(t *testing.T) *Store {
	st := NewStore()
	st.Put(fixture(t))
	r := core.NewRelation(dScheme("KV"))
	r.MustInsert(dTuple(r.Scheme(), "a", 1))
	r.MustInsert(dTuple(r.Scheme(), "b", 2))
	st.Put(r)
	st.lsn.Store(7)
	return st
}

// snapshotBytes encodes one cut of st in the store-file format.
func snapshotBytes(t testing.TB, st *Store) []byte {
	var buf bytes.Buffer
	if err := encodeStore(&buf, st.pinAll()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkLoadOrResave is the corruption contract: data either fails to
// load, or loads contents that save back to exactly data. It returns
// the load error.
func checkLoadOrResave(t *testing.T, data []byte) error {
	t.Helper()
	back, lsn, err := decodeStore(bytes.NewReader(data))
	if err != nil {
		return err
	}
	back.lsn.Store(lsn)
	if again := snapshotBytes(t, back); !bytes.Equal(again, data) {
		t.Fatalf("corrupt snapshot loaded with different contents (%d bytes in, %d re-saved)", len(data), len(again))
	}
	return nil
}

// TestSnapshotBitFlips flips every single bit of a small saved store,
// one at a time. Each flip must fail to load — with ErrSnapshotCorrupt
// anywhere past the magic and version — or load contents that re-save
// byte-identically. Without checksums, a flipped key byte or value
// loads silently as different data.
func TestSnapshotBitFlips(t *testing.T) {
	good := snapshotBytes(t, flipStore(t))
	if err := checkLoadOrResave(t, good); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	}
	data := make([]byte, len(good))
	for bit := 0; bit < len(good)*8; bit++ {
		copy(data, good)
		data[bit/8] ^= 1 << (bit % 8)
		err := checkLoadOrResave(t, data)
		if err != nil && bit >= 64 && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("bit %d: load error %v does not wrap ErrSnapshotCorrupt", bit, err)
		}
	}
}

// TestSnapshotCorruptionNamesRecord: a checksum mismatch in a record
// names the record's index, and truncation or trailing bytes are
// corruption too.
func TestSnapshotCorruptionNamesRecord(t *testing.T) {
	good := snapshotBytes(t, flipStore(t))
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 0x80 // the last record's CRC
	_, _, err := decodeStore(bytes.NewReader(bad))
	if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "relation 1 (KV)") {
		t.Fatalf("flipped last CRC: got %v, want ErrSnapshotCorrupt naming relation 1 (KV)", err)
	}
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"trailing":  append(bytes.Clone(good), 0),
	} {
		if _, _, err := decodeStore(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestCheckpointSkipsUnchangedCut: a checkpoint of the cut the last
// one wrote writes nothing. A drain's Checkpoint then Close adds one
// snapshot, and a group commit (a new LSN) or a direct insert (a new
// version of its relation) makes the next checkpoint write again.
func TestCheckpointSkipsUnchangedCut(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRelation(dScheme("CK"))
	st.Put(r)
	before := mCheckpointCount.Load()
	step := func(what string, want uint64, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := mCheckpointCount.Load() - before; got != want {
			t.Fatalf("after %s: %d snapshots written, want %d", what, got, want)
		}
	}
	commitKV(t, []*core.Relation{r}, 1)
	step("checkpoint after a commit", 1, st.Checkpoint)
	step("checkpoint of the same cut", 1, st.Checkpoint)
	r.MustInsert(dTuple(r.Scheme(), "k002", 2))
	step("checkpoint after a direct insert", 2, st.Checkpoint)
	commitKV(t, []*core.Relation{r}, 3)
	step("checkpoint after a second commit", 3, st.Checkpoint)
	step("close with no write since", 3, st.Close)

	st2, _ := openDurableT(t, dir)
	checkPrefix(t, st2, "CK", 3)
}

// FuzzLoadStore mutates a saved snapshot — a truncation and two byte
// flips — and loads it. Loading must never panic, and must either fail
// or load contents that re-save byte-identically.
func FuzzLoadStore(f *testing.F) {
	st := NewStore()
	st.Put(fixture(f))
	r := core.NewRelation(dScheme("KV"))
	r.MustInsert(dTuple(r.Scheme(), "a", 1))
	st.Put(r)
	st.lsn.Store(3)
	pristine := snapshotBytes(f, st)

	f.Add(uint32(len(pristine)), uint32(0), byte(0), uint32(0), byte(0))    // untouched
	f.Add(uint32(len(pristine)), uint32(9), byte(0x10), uint32(0), byte(0)) // LSN
	f.Add(uint32(len(pristine)-5), uint32(0), byte(0), uint32(0), byte(0))  // torn
	f.Add(uint32(len(pristine)), uint32(60), byte(0xff), uint32(61), byte(1))

	f.Fuzz(func(t *testing.T, truncAt, pos1 uint32, mask1 byte, pos2 uint32, mask2 byte) {
		data := bytes.Clone(pristine)
		if int64(truncAt) < int64(len(data)) {
			data = data[:truncAt]
		}
		if len(data) > 0 {
			data[int(pos1)%len(data)] ^= mask1
			data[int(pos2)%len(data)] ^= mask2
		}
		checkLoadOrResave(t, data)
	})
}

// TestCorruptCountAllocatesBounded sets the step count of a small valid
// snapshot's first function to 2^24−1, the largest count the decoder
// accepts, and loads it. The load must fail with ErrSnapshotCorrupt
// and allocate under 1 MiB in all: the slabs grow by the steps that
// actually arrive, never by a count field. A decoder that reserves a
// slab by the count asks for 2^24 steps — about 800 MB — and fails
// this.
func TestCorruptCountAllocatesBounded(t *testing.T) {
	st := NewStore()
	r := core.NewRelation(dScheme("KV"))
	r.MustInsert(dTuple(r.Scheme(), "a", 1))
	st.Put(r)
	data := snapshotBytes(t, st)

	// header and its CRC, record magic and version, scheme, tuple
	// count, then the tuple's one-interval lifespan.
	var sw errWriter
	encodeScheme(&sw, r.Scheme())
	off := 24 + 8 + len(sw.buf) + 4 + 4 + 16
	if got := binary.LittleEndian.Uint32(data[off:]); got != 1 {
		t.Fatalf("field at %d holds %d, want the key's step count 1", off, got)
	}
	binary.LittleEndian.PutUint32(data[off:], maxCount-1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeStore(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("load: %v, want ErrSnapshotCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a corrupt count made the load allocate %d bytes, want under 1 MiB", alloc)
	}
}
