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
	intervalBuilds *obs.Counter // full lifespan-index (re)builds, incl. overlay compactions
	rangeBuilds    *obs.Counter // full value-range-index (re)builds, incl. overlay compactions
	attrBuilds     *obs.Counter // full attribute-index (re)builds
	incremental    *obs.Counter // single-tuple changes absorbed in place
	resyncs        *obs.Counter // full catch-ups after a missed notification
}{
	intervalBuilds: obs.Default.Counter("engine.index.interval_builds"),
	rangeBuilds:    obs.Default.Counter("engine.index.range_builds"),
	attrBuilds:     obs.Default.Counter("engine.index.attr_builds"),
	incremental:    obs.Default.Counter("engine.index.incremental"),
	resyncs:        obs.Default.Counter("engine.index.resyncs"),
}

// RelIndexes is the index set of one relation: a lifespan interval
// index, per-attribute hash indexes and per-attribute value-range
// indexes, each built lazily on first demand. The set is the
// relation's change observer, so single-tuple inserts and merges are absorbed into the
// built indexes incrementally; a missed notification (detected by a
// version gap) marks the set stale and the next access rebuilds from a
// consistent snapshot.
type RelIndexes struct {
	rel *core.Relation

	mu       sync.Mutex
	version  uint64 // relation version every built structure reflects
	stale    bool   // a notification was missed; rebuild on next access
	interval *IntervalIndex
	attrs    map[string]*AttrIndex
	ranges   map[string]*IntervalIndex
}

// maintained is an index the set keeps current from change
// notifications; every position is a tuple's slot in the relation.
type maintained interface {
	Add(t *core.Tuple, pos int)
	AddBatch(ts []*core.Tuple, pos int)
	Replace(old, new *core.Tuple, pos int)
}

// Indexes returns r's (possibly empty) index set. The set is r's
// change observer: it is installed on first use and lives exactly as
// long as r does, so a long-lived process that reloads stores keeps
// index memory only for the live relations that have been queried.
// Once installed it is found without a lock. The individual indexes
// are built lazily by Interval, Attr and Range and kept fresh
// incrementally thereafter.
func Indexes(r *core.Relation) *RelIndexes {
	return r.Observe(func(version uint64) core.Observer {
		return &RelIndexes{rel: r, version: version, attrs: make(map[string]*AttrIndex), ranges: make(map[string]*IntervalIndex)}
	}).(*RelIndexes)
}

// builtLocked returns every index the set has built.
func (x *RelIndexes) builtLocked() []maintained {
	var out []maintained
	if x.interval != nil {
		out = append(out, x.interval)
	}
	for _, ix := range x.attrs {
		out = append(out, ix)
	}
	for _, ix := range x.ranges {
		out = append(out, ix)
	}
	return out
}

// RelationChanged implements core.Observer: it absorbs one change into
// every already-built index. Notifications are delivered outside the
// relation's lock and may therefore arrive out of order under
// concurrent writers; the consecutive-version check detects a gap and
// degrades to a full rebuild on next access instead of applying
// changes twice or out of order. A batch absorbs as one coalesced
// merge per index — one lock round and at most one overlay compaction
// — and a write-group batch's replaced slots as in-place replacements
// under the same version bump.
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
	for _, ix := range x.builtLocked() {
		switch c.Kind {
		case core.ChangeInsert:
			ix.Add(c.New, c.Pos)
		case core.ChangeMerge:
			ix.Replace(c.Old, c.New, c.Pos)
		case core.ChangeBatch:
			for _, m := range c.Merges {
				ix.Replace(m.Old, m.New, m.Pos)
			}
			if len(c.Batch) > 0 {
				ix.AddBatch(c.Batch, c.Pos)
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
		if x.interval != nil || len(x.attrs) > 0 || len(x.ranges) > 0 {
			idxMetrics.resyncs.Inc()
			if x.interval != nil {
				x.interval = newIntervalIndexFrom(ts)
			}
			for name := range x.attrs {
				x.attrs[name] = newAttrIndexFrom(x.rel.Scheme(), ts, name)
			}
			for name := range x.ranges {
				x.ranges[name] = x.newRangeIndex(ts, name)
			}
		}
		x.version = v
		x.stale = false
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

// Range returns the value-range index over the named Int- or
// Time-valued attribute, building it on first use.
func (x *RelIndexes) Range(name string) *IntervalIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	ts := x.freshSnapshotLocked()
	ix, ok := x.ranges[name]
	if !ok {
		ix = x.newRangeIndex(ts, name)
		x.ranges[name] = ix
	}
	return ix
}

// newRangeIndex builds the value-range index over the named attribute
// from a stable snapshot.
func (x *RelIndexes) newRangeIndex(ts []*core.Tuple, name string) *IntervalIndex {
	return newSpanIndexFrom(ts, valueSpans(x.rel.Scheme().Index(name)), idxMetrics.rangeBuilds)
}
