package storage

import (
	"fmt"
	"os"
	"path/filepath"
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

// LogGroup implements core.GroupLog: it serializes the group's ops on
// the relations attached to s and fsyncs them to s's WAL before core
// applies anything. It runs under the publish lock (shared) with every
// touched relation's mutex held, which gives the log two guarantees
// for free: no Pin interleaves between append and apply, and two
// groups touching a common relation reach the log in their apply
// order. An append error aborts the commit — nothing applied, nothing
// acknowledged.
func (s *Store) LogGroup(g *core.WriteGroup) error {
	payload, err := encodeGroupPayload(g, s)
	if err != nil || len(payload) == 0 {
		return err
	}
	lsn, err := s.log.Append(payload)
	if err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	// Publish the new consistency point. Concurrent groups on disjoint
	// relations may race here, so only ever move the LSN forward.
	for {
		cur := s.lsn.Load()
		if lsn <= cur || s.lsn.CompareAndSwap(cur, lsn) {
			break
		}
	}
	return nil
}

// attach makes s the log of rels; a no-op for plain in-memory stores.
func (s *Store) attach(rels ...*core.Relation) {
	if s.log == nil {
		return
	}
	for _, r := range rels {
		r.AttachLog(s)
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
	st.lsn.Store(snapLSN)
	// A checkpoint may have truncated every record the snapshot covers;
	// keep the LSN clock ahead of the snapshot regardless.
	log.EnsureLSN(snapLSN)

	// Replay runs before the store has a log, so no relation is attached
	// yet and the re-committed groups are not logged a second time. One
	// reader decodes every group, so replayed tuples share its slabs.
	dec := &errReader{}
	err = log.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			// Already folded into the snapshot: a crash between the
			// checkpoint's snapshot rename and its log truncation leaves
			// these records behind, and applying them again would
			// double-apply.
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
	if err != nil {
		log.Close()
		return nil, stats, err
	}
	st.dir = dir
	st.log = log
	st.mu.RLock()
	for _, r := range st.rels {
		r.AttachLog(st)
	}
	st.mu.RUnlock()
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

// Close checkpoints the store, detaches it from its relations, and
// closes the WAL. A relation another store has attached since keeps
// that store's log. A write group racing Close either lands before the
// detach (logged and folded into the final state at the next open) or
// fails its append against the closed log and aborts — never silently
// undurable. In-memory stores close as a no-op.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.Checkpoint()
	s.mu.RLock()
	for _, r := range s.rels {
		r.DetachLog(s)
	}
	s.mu.RUnlock()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
