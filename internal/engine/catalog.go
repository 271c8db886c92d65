package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Index builds are counted in the process-wide metrics registry
// (engine.index.*), so tests, `\metrics` and the server's `metrics` op
// can all show how often a probe found no index for its version.
var idxMetrics = struct {
	intervalBuilds *obs.Counter // lifespan-index builds
	rangeBuilds    *obs.Counter // value-range-index builds
	attrBuilds     *obs.Counter // attribute-index builds
}{
	intervalBuilds: obs.Default.Counter("engine.index.interval_builds"),
	rangeBuilds:    obs.Default.Counter("engine.index.range_builds"),
	attrBuilds:     obs.Default.Counter("engine.index.attr_builds"),
}

// relIndexes is the index set of one pinned version of a relation: a
// lifespan interval index, per-attribute hash indexes and
// per-attribute value-range indexes, each built from the version's
// tuples on its first probe and never changed after. The relation
// caches its latest set in its index slot (core.Relation.IndexSlot),
// as it caches the version's key order.
type relIndexes struct {
	v core.RelVersion // the version every index is built from

	mu       sync.Mutex
	interval *IntervalIndex
	attrs    map[string]*AttrIndex
	ranges   map[string]*IntervalIndex
}

// indexes returns an index set that answers probes through pin v: the
// relation's cached set when it was built at v's version or later,
// else a new set over v's tuples, which replaces the cached one unless
// a set at least as new got there first. A later set answers for v
// exactly: positions never move, so core.RelVersion.InKeyOrder drops
// the positions past the pin and maps the others to the pinned tuple
// there, and a merge only grows a tuple's lifespan and the image of
// each of its values, so the later set's matches are a superset of the
// pinned ones, from which the caller's full condition or restriction
// drops the excess.
func indexes(v core.RelVersion) *relIndexes {
	slot := v.Rel().IndexSlot()
	var x *relIndexes
	for {
		old := slot.Load()
		if cur, _ := old.(*relIndexes); cur != nil && cur.v.Version() >= v.Version() {
			return cur
		}
		if x == nil {
			x = &relIndexes{v: v, attrs: make(map[string]*AttrIndex), ranges: make(map[string]*IntervalIndex)}
		}
		if slot.CompareAndSwap(old, x) {
			return x
		}
	}
}

// Interval returns the lifespan interval index, building it on first
// use.
func (x *relIndexes) Interval() *IntervalIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.interval == nil {
		x.interval = newIntervalIndexFrom(x.v.Tuples())
	}
	return x.interval
}

// Attr returns the hash index over the named attribute, building it on
// first use.
func (x *relIndexes) Attr(name string) *AttrIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	ix, ok := x.attrs[name]
	if !ok {
		ix = newAttrIndexFrom(x.v.Rel().Scheme(), x.v.Tuples(), name)
		x.attrs[name] = ix
	}
	return ix
}

// Range returns the value-range index over the named Int- or
// Time-valued attribute, building it on first use.
func (x *relIndexes) Range(name string) *IntervalIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	ix, ok := x.ranges[name]
	if !ok {
		ix = newSpanIndexFrom(x.v.Tuples(), valueSpans(x.v.Rel().Scheme().Index(name)), idxMetrics.rangeBuilds)
		x.ranges[name] = ix
	}
	return ix
}
