package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Index build and maintenance work is counted in the process-wide
// metrics registry (engine.index.*) so tests, `\metrics` and the
// server's `metrics` op can all show that single-tuple inserts are
// absorbed incrementally instead of triggering full rebuilds.
var idxMetrics = struct {
	intervalBuilds *obs.Counter // full interval-index (re)builds, incl. overlay compactions
	attrBuilds     *obs.Counter // full attribute-index (re)builds
	incremental    *obs.Counter // single-tuple changes absorbed in place
	resyncs        *obs.Counter // full catch-ups after a missed notification
}{
	intervalBuilds: obs.Default.Counter("engine.index.interval_builds"),
	attrBuilds:     obs.Default.Counter("engine.index.attr_builds"),
	incremental:    obs.Default.Counter("engine.index.incremental"),
	resyncs:        obs.Default.Counter("engine.index.resyncs"),
}

// RelIndexes is the index set of one relation: a lifespan interval index
// plus per-attribute hash indexes, each built lazily on first demand,
// and the statistics object derived from them. The set is the
// relation's change observer, so single-tuple inserts and merges are
// absorbed into the built indexes incrementally; a missed
// notification (detected by a version gap) marks the set stale and the
// next access rebuilds from a consistent snapshot.
type RelIndexes struct {
	rel *core.Relation

	mu       sync.Mutex
	version  uint64 // relation version every built structure reflects
	stale    bool   // a notification was missed; rebuild on next access
	interval *IntervalIndex
	attrs    map[string]*AttrIndex
	stats    *RelStats // cached statistics; nil = recompute on demand
}

// Indexes returns r's (possibly empty) index set. The set is r's
// change observer: it is installed on first use and lives exactly as
// long as r does, so a long-lived process that reloads stores keeps
// index memory only for the live relations that have been queried.
// Once installed it is found without a lock. The individual indexes
// are built lazily by Interval and Attr and kept fresh incrementally
// thereafter.
func Indexes(r *core.Relation) *RelIndexes {
	return r.Observe(func(version uint64) core.Observer {
		return &RelIndexes{rel: r, version: version, attrs: make(map[string]*AttrIndex)}
	}).(*RelIndexes)
}

// RelationChanged implements core.Observer: it absorbs one single-tuple
// change into every already-built index. Notifications are delivered
// outside the relation's lock and may therefore arrive out of order
// under concurrent writers; the consecutive-version check detects a gap
// and degrades to a full rebuild on next access instead of applying
// changes twice or out of order.
func (x *RelIndexes) RelationChanged(r *core.Relation, c core.Change) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stale || c.Version <= x.version {
		return // pending rebuild, or already absorbed by a resync
	}
	if c.Version != x.version+1 {
		x.stale = true
		return
	}
	x.version = c.Version
	x.stats = nil
	switch c.Kind {
	case core.ChangeInsert:
		if x.interval != nil {
			x.interval.Add(c.New, c.Pos)
		}
		for _, ix := range x.attrs {
			ix.Add(c.New)
		}
	case core.ChangeMerge:
		if x.interval != nil {
			x.interval.Replace(c.Old, c.New, c.Pos)
		}
		for _, ix := range x.attrs {
			ix.Replace(c.Old, c.New)
		}
	case core.ChangeBatch:
		// One coalesced merge per index for the whole batch — one lock
		// round and at most one overlay compaction, instead of
		// len(Batch) single-tuple overlays. A write-group batch may also
		// carry replaced slots; they absorb as in-place replacements
		// under the same version bump.
		for _, m := range c.Merges {
			if x.interval != nil {
				x.interval.Replace(m.Old, m.New, m.Pos)
			}
			for _, ix := range x.attrs {
				ix.Replace(m.Old, m.New)
			}
		}
		if len(c.Batch) > 0 {
			if x.interval != nil {
				x.interval.AddBatch(c.Batch, c.Pos)
			}
			for _, ix := range x.attrs {
				ix.AddBatch(c.Batch)
			}
		}
	}
	idxMetrics.incremental.Inc()
}

// freshSnapshotLocked brings every built structure up to the relation's
// current version when the set is stale or the caller is about to build
// a new structure at a version ahead of x.version. It returns a tuple
// snapshot consistent with x.version for the caller's own build.
func (x *RelIndexes) freshSnapshotLocked() []*core.Tuple {
	//lint:allow pindiscipline index resync deliberately reads the live atomic (tuples, version) pair; probes are version-bounded later
	ts, v := x.rel.SnapshotVersion()
	if x.stale || v != x.version {
		if x.interval != nil || len(x.attrs) > 0 {
			idxMetrics.resyncs.Inc()
			if x.interval != nil {
				x.interval = newIntervalIndexFrom(ts)
			}
			for name := range x.attrs {
				x.attrs[name] = newAttrIndexFrom(x.rel.Scheme(), ts, name)
			}
		}
		x.version = v
		x.stale = false
		x.stats = nil
	}
	return ts
}

// Interval returns the relation's lifespan interval index, building it
// on first use.
func (x *RelIndexes) Interval() *IntervalIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	ts := x.freshSnapshotLocked()
	if x.interval == nil {
		x.interval = newIntervalIndexFrom(ts)
	}
	return x.interval
}

// Attr returns the hash index over the named attribute, building it on
// first use.
func (x *RelIndexes) Attr(name string) *AttrIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	ts := x.freshSnapshotLocked()
	ix, ok := x.attrs[name]
	if !ok {
		ix = newAttrIndexFrom(x.rel.Scheme(), ts, name)
		x.attrs[name] = ix
	}
	return ix
}
