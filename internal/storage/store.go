package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wal"
)

// Store is a minimal heap-file style database: a set of named historical
// relations that can be persisted to and reloaded from a single file.
// It stands in for the paper's physical level in the examples and the
// CLI. The name map itself is guarded by an RWMutex so readers may
// resolve relations while MergeStore registers new ones; the *contents*
// of the relations are protected by core's own epoch/snapshot protocol.
//
// A store opened with OpenDurable additionally carries a write-ahead
// log: every committed core.WriteGroup touching its relations is
// fsynced to the log before it publishes, Checkpoint snapshots the
// store and truncates the log, and OpenDurable replays whatever the
// last checkpoint missed. See docs/DURABILITY.md.
type Store struct {
	mu   sync.RWMutex
	rels map[string]*core.Relation

	// Durable-mode state (nil/zero for plain in-memory stores). log is
	// set once by OpenDurable, after replay, and never reset to nil —
	// after Close, a racing LogGroup fails on the closed log instead of
	// dereferencing nil. lsn is the WAL sequence number the in-memory
	// state is consistent through; it moves under the publish lock's
	// shared side (LogGroup) and is read exactly under its exclusive
	// side (pinAll).
	dir string
	log *wal.Log
	lsn atomic.Uint64

	// ckMu serialises checkpoints, so a slower one can never rename an
	// older cut over a newer one; written stamps the cut the last
	// checkpoint wrote (nil before the first).
	ckMu    sync.Mutex
	written *cutStamp
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rels: make(map[string]*core.Relation)}
}

// Put registers (or replaces) a relation under its scheme name. A
// stored relation is shared database state: it is marked published so
// every later mutation participates in the epoch/snapshot protocol
// (see core.Pin). On a durable store the relation's write groups are
// also logged to the store's WAL from now on, and a replaced relation
// logged by this store is detached.
func (s *Store) Put(r *core.Relation) {
	r.MarkPublished()
	s.mu.Lock()
	name := r.Scheme().Name
	old := s.rels[name]
	s.rels[name] = r
	s.mu.Unlock()
	if old != nil && old != r {
		old.DetachLog(s)
	}
	s.attach(r)
}

// Get returns the named relation.
func (s *Store) Get(name string) (*core.Relation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rels[name]
	return r, ok
}

// Names returns the stored relation names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pinnedStore is one consistent cut of the whole store: every relation
// pinned in a single core.PinAtomic, plus the WAL sequence number the
// cut is consistent through. Because LogGroup appends to the
// log and advances lsn under the shared side of the publish lock, and
// the pin holds its exclusive side, the LSN read here matches the
// pinned tuple state exactly — no group is half in.
type pinnedStore struct {
	names []string
	vers  []core.RelVersion
	lsn   uint64
}

// cutStamp names what a cut holds without holding its tuples: each
// relation (in name order) at its version, and the LSN. Cuts with equal
// stamps encode to the same snapshot.
type cutStamp struct {
	rels []*core.Relation
	vers []uint64
	lsn  uint64
}

func (c pinnedStore) stamp() *cutStamp {
	st := &cutStamp{lsn: c.lsn}
	for _, v := range c.vers {
		st.rels = append(st.rels, v.Rel())
		st.vers = append(st.vers, v.Version())
	}
	return st
}

// equal reports whether b stamps the same cut as a; a nil b (no cut
// written yet) stamps none.
func (a *cutStamp) equal(b *cutStamp) bool {
	return b != nil && a.lsn == b.lsn &&
		slices.Equal(a.rels, b.rels) && slices.Equal(a.vers, b.vers)
}

// pinAll captures a pinnedStore cut of s.
func (s *Store) pinAll() pinnedStore {
	s.mu.RLock()
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	rels := make([]*core.Relation, len(names))
	for i, n := range names {
		rels[i] = s.rels[n]
	}
	s.mu.RUnlock()
	var lsn uint64
	_, vers, _ := core.PinAtomic(func() ([]*core.Relation, error) {
		lsn = s.lsn.Load()
		return rels, nil
	})
	return pinnedStore{names: names, vers: vers, lsn: lsn}
}

// saveWrapWriter, when non-nil, wraps the save file before anything is
// written — a test seam for injecting write failures into Save without
// touching the filesystem layer. The codec's window sits above it, so
// the seam sees the writes the file would.
var saveWrapWriter func(io.Writer) io.Writer

// ErrSnapshotCorrupt is wrapped by every load error past a store
// file's magic and version: a checksum mismatch, a truncated or
// undecodable record, a duplicate relation or trailing bytes. The
// file's bytes are not the bytes a save wrote.
var ErrSnapshotCorrupt = errors.New("storage: snapshot corrupt")

// Save writes every relation to path in the binary format. The write
// is atomic — a temp file in path's directory, fsynced, renamed over
// the old file, directory fsynced — so a crash or error mid-save never
// destroys the previous good store. The tuple state is one pinned cut:
// a save racing a write group sees it entirely or not at all.
func (s *Store) Save(path string) error {
	return savePinned(path, s.pinAll())
}

func savePinned(path string, cut pinnedStore) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".hrdm-save-*")
	if err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var out io.Writer = f
	if saveWrapWriter != nil {
		out = saveWrapWriter(f)
	}
	if err := encodeStore(out, cut); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	return syncDir(dir)
}

// encodeStore writes cut to out in the store-file format (header
// version 3), through the codec's one window: a write(2) per window
// of bytes.
//
//	file   = header u32 crc32(header) (record u32 crc32(record))*
//	header = u32 magic | u32 version | u64 lsn | u32 nRecords
//
// where each record is one relation as EncodeBytes writes it, in name
// order, and each CRC covers the bytes since the previous one.
func encodeStore(out io.Writer, cut pinnedStore) error {
	w := newWriter(out)
	w.u32(magic)
	w.u32(storeVersion)
	w.u64(cut.lsn)
	w.u32(uint32(len(cut.names)))
	w.seal()
	for _, v := range cut.vers {
		encodePinned(w, v)
		w.seal()
	}
	w.flush()
	return w.err
}

// Load reads a store written by Save. Its relations' indexes are built
// by the engine on their first probe.
func Load(path string) (*Store, error) {
	s, _, err := loadFile(path)
	return s, err
}

// loadFile reads a store file, returning the snapshot's WAL sequence
// number too.
func loadFile(path string) (*Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: load: %w", err)
	}
	defer f.Close()
	return decodeStore(f)
}

// decodeStore reads what encodeStore wrote, through the codec's one
// window — a read(2) per window of bytes — checking every CRC before
// trusting what it covers: the header's before its record count, each
// record's before the relation joins the store.
func decodeStore(in io.Reader) (*Store, uint64, error) {
	r := newReader(in)
	if m := r.u32(); r.err == nil && m != magic {
		return nil, 0, fmt.Errorf("storage: bad store magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != storeVersion {
		return nil, 0, fmt.Errorf("storage: unsupported store version %d", v)
	}
	lsn := r.u64()
	n := r.u32()
	if r.err != nil {
		return nil, 0, fmt.Errorf("storage: load header: %w: %w", ErrSnapshotCorrupt, r.err)
	}
	if !r.sealed() {
		return nil, 0, fmt.Errorf("storage: load header: %w: checksum mismatch", ErrSnapshotCorrupt)
	}
	s := NewStore()
	for i := uint32(0); i < n; i++ {
		rel, err := decodeRecord(r)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: load relation %d: %w: %w", i, ErrSnapshotCorrupt, err)
		}
		name := rel.Scheme().Name
		if !r.sealed() {
			return nil, 0, fmt.Errorf("storage: load relation %d (%s): %w: checksum mismatch", i, name, ErrSnapshotCorrupt)
		}
		if _, dup := s.rels[name]; dup {
			return nil, 0, fmt.Errorf("storage: load relation %d (%s): %w: duplicate name", i, name, ErrSnapshotCorrupt)
		}
		s.Put(rel)
	}
	if more, err := r.more(); err != nil {
		return nil, 0, fmt.Errorf("storage: load: %w", err)
	} else if more {
		return nil, 0, fmt.Errorf("storage: load: %w: bytes after the last of %d relations", ErrSnapshotCorrupt, n)
	}
	return s, lsn, nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}

// MergeStore merges every relation of src into s as one atomic
// cross-relation write group. A relation whose name already exists in
// s must render the identical scheme — attributes with their domains,
// interpolation and lifespans, and the same key — and receives src's
// tuples with history-merging semantics: a tuple sharing a key merges
// with the existing history, a contradicting one fails the whole
// merge. A name new to s is built as a private relation, filled inside
// the same group commit, and registered only after the commit
// succeeds, so readers never resolve a half-loaded (or, on failure, a
// phantom) relation. Either the whole group publishes — one epoch
// tick; a reader pinning the existing relations sees every merge or
// none — or an error leaves s exactly as it was.
func (s *Store) MergeStore(src *Store) error {
	// Validate scheme compatibility before staging anything. The
	// canonical scheme rendering covers everything tuple validity
	// depends on: attribute names, order, domains, interpolation,
	// attribute lifespans (ALS) and the key set.
	for _, name := range src.Names() {
		sr, _ := src.Get(name)
		if dr, ok := s.Get(name); ok {
			if dr.Scheme().String() != sr.Scheme().String() {
				return fmt.Errorf("storage: merge: relation %s: schemes differ:\n  have %s\n  got  %s",
					name, dr.Scheme(), sr.Scheme())
			}
		}
	}
	// One pinned cut of the source: a merge racing writers to src copies
	// a consistent snapshot, never a torn one.
	cut := src.pinAll()
	g := core.NewWriteGroup()
	var fresh []*core.Relation
	for i, name := range cut.names {
		sv := cut.vers[i]
		if dr, ok := s.Get(name); ok {
			for _, t := range sv.Tuples() {
				g.InsertMerging(dr, t)
			}
		} else {
			// Built privately, filled by the group, registered below only
			// once the commit has succeeded: unreachable until complete.
			nr := core.NewRelation(sv.Rel().Scheme())
			fresh = append(fresh, nr)
			g.InsertBatch(nr, sv.Tuples())
		}
	}
	// A durable store logs the fresh relations' ops with the rest of
	// the group, so they are attached before the commit.
	s.attach(fresh...)
	if err := g.Commit(); err != nil {
		// Nothing was applied to s; the unregistered fresh relations are
		// simply dropped.
		return fmt.Errorf("storage: merge: %w", err)
	}
	for _, nr := range fresh {
		s.Put(nr)
	}
	return nil
}

// SizeBytes estimates the logical storage footprint of a historical
// relation under the same accounting rules as the cube and tuplestamp
// baselines (experiment E10): per tuple, its lifespan intervals at 16
// bytes each; per attribute value, one entry per representation-level
// step — 16 bytes of interval plus the scalar payload (8 bytes, strings
// at length). Constant key values cost a single entry regardless of
// lifespan length, which is exactly the economy the paper's
// attribute-level timestamping buys.
func SizeBytes(r *core.Relation) int64 {
	_, vers := core.Pin(r)
	var total int64
	for _, t := range vers[0].Tuples() {
		total += int64(t.Lifespan().NumIntervals()) * 16
		for i := range r.Scheme().Attrs {
			f := t.ValueAt(i)
			f.Steps(func(_ chronon.Interval, v value.Value) bool {
				total += 16
				if v.Kind() == value.KindString {
					total += int64(len(v.AsString()))
				} else {
					total += 8
				}
				return true
			})
		}
	}
	return total
}
