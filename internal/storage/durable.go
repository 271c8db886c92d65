package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Durable-store metrics: checkpoint counts and latency, and what
// recovery actually replayed — the numbers that tell an operator how
// much work a crash would redo.
var (
	mCheckpointCount = obs.Default.Counter("storage.checkpoint.count")
	mCheckpointNs    = obs.Default.Histogram("storage.checkpoint.ns")
	mRecoverGroups   = obs.Default.Counter("storage.recover.groups")
	mRecoverTuples   = obs.Default.Counter("storage.recover.tuples")
)

// Fixed file names inside a durable store directory.
const (
	snapshotFile = "store.hrdm"
	walFile      = "wal.log"
)

// durableByRel maps a published relation to the durable store whose
// WAL logs its write groups. The commit hook consults it on every
// group commit; entries are added by Put/OpenDurable/MergeStore and
// removed by Close.
var durableByRel sync.Map // *core.Relation → *Store

// The storage layer owns core's commit hook for the life of the
// process: every write-group commit anywhere passes through
// logWriteGroup, which is a cheap map miss for groups that touch no
// durable store.
func init() { core.SetCommitHook(logWriteGroup) }

// logWriteGroup is the core.CommitHook: it serializes the group's ops
// and fsyncs them to the owning store's WAL before core applies
// anything. It runs under the publish lock (shared) with every touched
// relation's mutex held, which gives the log two guarantees for free:
// no Pin interleaves between append and apply, and two groups touching
// a common relation reach the log in their apply order. An append
// error aborts the commit — nothing applied, nothing acknowledged.
func logWriteGroup(g *core.WriteGroup) error {
	var target *Store
	for _, r := range g.Rels() {
		v, ok := durableByRel.Load(r)
		if !ok {
			continue
		}
		st := v.(*Store)
		if st.replaying.Load() {
			// Recovery re-commits logged groups through the normal path;
			// they are already in the log.
			continue
		}
		if target != nil && target != st {
			// Refuse rather than log half a group into each store: a crash
			// between the two appends would recover one store with a group
			// the other never saw, breaking the committed-prefix invariant.
			return fmt.Errorf("storage: write group spans two durable stores")
		}
		target = st
	}
	if target == nil {
		return nil
	}
	payload, err := encodeGroupPayload(g, func(r *core.Relation) bool {
		v, ok := durableByRel.Load(r)
		return ok && v.(*Store) == target
	})
	if err != nil || len(payload) == 0 {
		return err
	}
	lsn, err := target.log.Append(payload)
	if err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	// Publish the new consistency point. Concurrent groups on disjoint
	// relations may race here, so only ever move the LSN forward.
	for {
		cur := target.lsn.Load()
		if lsn <= cur || target.lsn.CompareAndSwap(cur, lsn) {
			break
		}
	}
	return nil
}

// trackRelations registers rels as logged by s; a no-op for plain
// in-memory stores.
func (s *Store) trackRelations(rels []*core.Relation) {
	if s.log == nil {
		return
	}
	for _, r := range rels {
		durableByRel.Store(r, s)
	}
}

// untrackRelations undoes trackRelations.
func (s *Store) untrackRelations(rels []*core.Relation) {
	if s.log == nil {
		return
	}
	for _, r := range rels {
		durableByRel.Delete(r)
	}
}

// DurableOptions tunes OpenDurableOptions.
type DurableOptions struct {
	// NoSync skips the per-append fsync (group commits remain logged
	// and ordered, but a crash may lose the unsynced suffix). For
	// benchmarks that isolate fsync cost; production opens sync.
	NoSync bool
}

// RecoveryStats reports what OpenDurable found and redid.
type RecoveryStats struct {
	SnapshotLSN    uint64 // WAL LSN the snapshot file was consistent through
	ReplayedGroups int    // complete groups re-applied from the log
	ReplayedTuples int    // tuples staged across those groups
	TornBytes      int64  // trailing log bytes discarded as torn/corrupt
	LogBytes       int64  // log size after recovery
}

// Recovered reports whether opening had to redo any work (or discard a
// torn tail) — the CLI's cue to print a recovery banner.
func (rs RecoveryStats) Recovered() bool {
	return rs.ReplayedGroups > 0 || rs.TornBytes > 0
}

// OpenDurable opens (or creates) the durable store rooted at dir:
// load the last checkpoint snapshot if one exists, open the WAL
// (discarding a torn tail), replay every complete group after the
// snapshot, and checkpoint immediately if anything was replayed so the
// next open starts clean. From then on every committed write group
// touching the store's relations is fsynced to the log before it
// publishes; call Checkpoint to bound the log and Close when done.
func OpenDurable(dir string) (*Store, RecoveryStats, error) {
	return OpenDurableOptions(dir, DurableOptions{})
}

// OpenDurableOptions is OpenDurable with knobs.
func OpenDurableOptions(dir string, opts DurableOptions) (*Store, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, stats, fmt.Errorf("storage: open durable: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	st := NewStore()
	var snapLSN uint64
	if _, err := os.Stat(snapPath); err == nil {
		if st, snapLSN, err = loadFile(snapPath); err != nil {
			return nil, stats, err
		}
	} else if !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("storage: open durable: %w", err)
	}
	stats.SnapshotLSN = snapLSN

	log, err := wal.Open(filepath.Join(dir, walFile), wal.Options{NoSync: opts.NoSync})
	if err != nil {
		return nil, stats, err
	}
	st.dir = dir
	st.log = log
	st.lsn.Store(snapLSN)
	// A checkpoint may have truncated every record the snapshot covers;
	// keep the LSN clock ahead of the snapshot regardless.
	log.EnsureLSN(snapLSN)
	st.mu.RLock()
	loaded := make([]*core.Relation, 0, len(st.rels))
	for _, r := range st.rels {
		loaded = append(loaded, r)
	}
	st.mu.RUnlock()
	st.trackRelations(loaded)

	st.replaying.Store(true)
	// One reader decodes every group, so replayed tuples share its slabs.
	dec := &errReader{}
	err = log.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			// Already folded into the snapshot: a crash between the
			// checkpoint's snapshot rename and its log truncation leaves
			// these records behind, and replaying them would double-apply.
			return nil
		}
		dec.reset(payload)
		n, err := st.applyGroupPayload(dec)
		if err != nil {
			return fmt.Errorf("storage: replay lsn %d: %w", lsn, err)
		}
		st.lsn.Store(lsn)
		stats.ReplayedGroups++
		stats.ReplayedTuples += n
		return nil
	})
	st.replaying.Store(false)
	if err != nil {
		st.untrackRelations(loaded)
		log.Close()
		return nil, stats, err
	}
	stats.TornBytes = log.Stats().TornBytes
	mRecoverGroups.Add(uint64(stats.ReplayedGroups))
	mRecoverTuples.Add(uint64(stats.ReplayedTuples))
	if stats.ReplayedGroups > 0 {
		if err := st.Checkpoint(); err != nil {
			st.Close()
			return nil, stats, err
		}
	}
	stats.LogBytes = log.Size()
	return st, stats, nil
}

// Durable reports whether the store carries a WAL.
func (s *Store) Durable() bool { return s.log != nil }

// Dir returns the durable store's directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.dir }

// Checkpoint pins one consistent cut of the store, atomically writes
// it as the snapshot file, and truncates the WAL through the cut's
// LSN. Group commits keep flowing while the snapshot is written; their
// records carry LSNs above the cut and survive the truncation. Safe to
// crash at any point: the old snapshot plus the full log, or the new
// snapshot plus a log whose ≤LSN prefix replay skips, both recover the
// same state. A cut identical to the one the last checkpoint wrote —
// the same relations at the same versions and the same LSN — is
// already the snapshot, so nothing is written and nothing counted.
func (s *Store) Checkpoint() error {
	if s.log == nil {
		return fmt.Errorf("storage: checkpoint: store is not durable")
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	t0 := time.Now()
	cut := s.pinAll()
	stamp := cut.stamp()
	if stamp.equal(s.written) {
		return nil
	}
	if err := savePinned(filepath.Join(s.dir, snapshotFile), cut); err != nil {
		return err
	}
	if err := s.log.TruncateThrough(cut.lsn); err != nil {
		return err
	}
	s.written = stamp
	mCheckpointCount.Inc()
	mCheckpointNs.ObserveSince(t0)
	return nil
}

// Close checkpoints the store, stops logging its relations, and closes
// the WAL. A write group racing Close either lands before the untrack
// (logged and folded into the final state at the next open) or fails
// its append against the closed log and aborts — never silently
// undurable. In-memory stores close as a no-op.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.Checkpoint()
	s.mu.RLock()
	rels := make([]*core.Relation, 0, len(s.rels))
	for _, r := range s.rels {
		rels = append(rels, r)
	}
	s.mu.RUnlock()
	for _, r := range rels {
		durableByRel.Delete(r)
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
