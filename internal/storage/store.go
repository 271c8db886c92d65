package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wal"
)

// IndexBuilder is installed by internal/engine's init (storage cannot
// import the engine without cycling through hql): it eagerly builds the
// engine's lifespan interval index and key hash indexes for a relation.
// Programs that link the engine get index-warm stores from Load and
// ParseText; programs that don't simply skip the warm-up.
var IndexBuilder func(*core.Relation)

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
	// set once by OpenDurable and never reset to nil — after Close, a
	// racing commit hook fails on the closed log instead of dereferencing
	// nil. lsn is the WAL sequence number the in-memory state is
	// consistent through; it moves under the publish lock's shared side
	// (commit hook) and is read exactly under its exclusive side (pinAll).
	dir       string
	log       *wal.Log
	lsn       atomic.Uint64
	replaying atomic.Bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rels: make(map[string]*core.Relation)}
}

// Put registers (or replaces) a relation under its scheme name. A
// stored relation is shared database state: it is marked published so
// every later mutation participates in the epoch/snapshot protocol
// (see core.Pin). On a durable store the relation is also tracked for
// write-ahead logging (and a replaced relation untracked).
func (s *Store) Put(r *core.Relation) {
	r.MarkPublished()
	s.mu.Lock()
	name := r.Scheme().Name
	old := s.rels[name]
	s.rels[name] = r
	s.mu.Unlock()
	if s.log != nil {
		if old != nil && old != r {
			durableByRel.Delete(old)
		}
		durableByRel.Store(r, s)
	}
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
// cut is consistent through. Because the commit hook appends to the
// log and advances lsn under the shared side of the publish lock, and
// the pin holds its exclusive side, the LSN read here matches the
// pinned tuple state exactly — no group is half in.
type pinnedStore struct {
	names []string
	vers  []core.RelVersion
	lsn   uint64
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
// touching the filesystem layer.
var saveWrapWriter func(io.Writer) io.Writer

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
	w := &errWriter{w: out}
	w.u32(magic)
	w.u32(storeVersion2)
	w.u64(cut.lsn)
	w.u32(uint32(len(cut.names)))
	for _, v := range cut.vers {
		encodePinned(w, v)
	}
	if w.err != nil {
		return fmt.Errorf("storage: save: %w", w.err)
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

// Load reads a store written by Save and warms its indexes.
func Load(path string) (*Store, error) {
	s, _, err := loadFile(path)
	if err != nil {
		return nil, err
	}
	s.RebuildIndexes()
	return s, nil
}

// loadFile reads a store file (header version 1 or 2), returning the
// snapshot's WAL sequence number (0 for version-1 files) and leaving
// index warm-up to the caller.
func loadFile(path string) (*Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: load: %w", err)
	}
	defer f.Close()
	r := &errReader{r: f}
	if m := r.u32(); r.err == nil && m != magic {
		return nil, 0, fmt.Errorf("storage: bad store magic %#x", m)
	}
	ver := r.u32()
	var lsn uint64
	switch {
	case r.err != nil:
	case ver == formatVersion:
	case ver == storeVersion2:
		lsn = r.u64()
	default:
		return nil, 0, fmt.Errorf("storage: unsupported store version %d", ver)
	}
	n := r.u32()
	if r.err != nil {
		return nil, 0, r.err
	}
	s := NewStore()
	for i := uint32(0); i < n; i++ {
		rel, err := Decode(f)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: load relation %d: %w", i, err)
		}
		s.Put(rel)
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
	// A durable store must know the fresh relations before the commit
	// hook fires, or their ops would miss the WAL.
	s.trackRelations(fresh)
	if err := g.Commit(); err != nil {
		// Nothing was applied to s; the unregistered fresh relations are
		// simply dropped.
		s.untrackRelations(fresh)
		return fmt.Errorf("storage: merge: %w", err)
	}
	for _, nr := range fresh {
		s.Put(nr)
	}
	s.RebuildIndexes()
	return nil
}

// RebuildIndexes eagerly constructs the query engine's lifespan interval
// index and key hash indexes for every stored relation, so a freshly
// loaded database answers its first indexed query at full speed. Load
// and the text-format loader call it; it is idempotent.
func (s *Store) RebuildIndexes() {
	if IndexBuilder == nil {
		return
	}
	// Snapshot the relation set first: index building takes catalog and
	// relation locks, which should not nest inside the store's.
	s.mu.RLock()
	rels := make([]*core.Relation, 0, len(s.rels))
	for _, r := range s.rels {
		rels = append(rels, r)
	}
	s.mu.RUnlock()
	for _, r := range rels {
		IndexBuilder(r)
	}
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
