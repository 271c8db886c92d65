package engine

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/value"
)

// ientry is one interval of one tuple. A tuple with a gapped lifespan
// (the paper's "reincarnation") contributes one entry per incarnation;
// ord is the tuple's position in the relation, which maps a match back
// to a pinned tuple (core.RelVersion.InKeyOrder). An entry holds no
// pointer, so the index adds nothing for the collector to scan.
type ientry struct {
	iv  chronon.Interval
	ord int32
}

// spanFunc appends to out the intervals tuple t contributes to an
// IntervalIndex.
type spanFunc func(t *core.Tuple, out []chronon.Interval) []chronon.Interval

// lifespanSpans is the lifespan index's spanFunc: t's lifespan
// intervals.
func lifespanSpans(t *core.Tuple, out []chronon.Interval) []chronon.Interval {
	ls := t.Lifespan()
	for i := range ls.NumIntervals() {
		out = append(out, ls.IntervalAt(i))
	}
	return out
}

// valueSpans is the spanFunc of a value-range index over the Int- or
// Time-valued attribute at position pos (a tuple holds only values of
// its attribute's domain): one interval [min, max] of the attribute's
// step values, none when it is nowhere defined, as no comparison holds
// where it is undefined.
func valueSpans(pos int) spanFunc {
	return func(t *core.Tuple, out []chronon.Interval) []chronon.Interval {
		f := t.ValueAt(pos)
		if f.IsNowhereDefined() {
			return out
		}
		iv := chronon.Interval{Lo: math.MaxInt64, Hi: math.MinInt64}
		for i := range f.NumSteps() {
			_, v := f.StepAt(i)
			x := chronon.Time(0)
			if v.Kind() == value.KindTime {
				x = v.AsTime()
			} else {
				x = chronon.Time(v.AsInt())
			}
			iv.Lo, iv.Hi = min(iv.Lo, x), max(iv.Hi, x)
		}
		return append(out, iv)
	}
}

// IntervalIndex indexes intervals of a relation's tuples: their
// lifespans (the lifespan index, which answers "which tuples are alive
// at some time of L") or the [min, max] of one attribute's values (a
// value-range index, which answers "which tuples could hold a value
// in [lo, hi]"). A spanFunc says which. A probe costs about
// O(log n + k) against the naive O(n·|intervals|) scan.
//
// The static part is one slice of entries sorted by start, read as an
// implicit balanced search tree: the range [l,r) has its node at
// m = (l+r)/2, and maxHi[m] is the latest end in [l,r), so a probe
// skips every subtree that ends before the query starts and stops at
// the first start past the query's end. The index as a whole is
// incrementally maintainable: inserts and merges land in a small
// overlay (extra entries, plus the positions whose static entries a
// merge replaced) that probes scan linearly; once the overlay grows
// past a threshold it is compacted into a fresh static part. The
// relation's index set feeds the overlay from change notifications.
type IntervalIndex struct {
	spans   spanFunc
	builds  *obs.Counter
	mu      sync.RWMutex
	es      []ientry       // static entries, sorted by iv.Lo
	maxHi   []chronon.Time // implicit-tree subtree maxima over es
	tuples  int            // tuples indexed (logical, including overlay)
	entries int            // intervals indexed (logical)

	// overlay: entries added since the static part was built, and the
	// positions whose static entries a merge replaced.
	extra []ientry
	dead  map[int32]bool

	// lifespan geometry for the statistics object (a value-range
	// index keeps it too, unread). covered is the
	// summed length of all live entries (in chronons, as float64 to
	// absorb the ±2^62 sentinels); lo/hi bound every entry ever added —
	// merges may leave them over-wide, which only softens estimates.
	covered float64
	lo, hi  chronon.Time
}

// newIntervalIndexFrom builds a lifespan index from a stable tuple
// snapshot.
func newIntervalIndexFrom(ts []*core.Tuple) *IntervalIndex {
	return newSpanIndexFrom(ts, lifespanSpans, idxMetrics.intervalBuilds)
}

// newSpanIndexFrom builds the index of the intervals spans gives each
// tuple of a stable snapshot; builds counts it and its compactions.
func newSpanIndexFrom(ts []*core.Tuple, spans spanFunc, builds *obs.Counter) *IntervalIndex {
	var es []ientry
	var buf []chronon.Interval
	for ord, t := range ts {
		buf = spans(t, buf[:0])
		for _, iv := range buf {
			es = append(es, ientry{iv: iv, ord: int32(ord)})
		}
	}
	ix := &IntervalIndex{spans: spans, builds: builds, tuples: len(ts)}
	ix.resetLocked(es)
	return ix
}

// resetLocked makes es, which it sorts in place, the static part and
// clears the overlay. Callers hold ix.mu (or own ix exclusively).
func (ix *IntervalIndex) resetLocked(es []ientry) {
	ix.builds.Inc()
	slices.SortFunc(es, func(a, b ientry) int { return cmp.Compare(a.iv.Lo, b.iv.Lo) })
	ix.es, ix.maxHi = es, make([]chronon.Time, len(es))
	ix.entries = len(es)
	ix.extra, ix.dead = nil, nil
	ix.covered, ix.lo, ix.hi = 0, 0, 0
	for i, e := range es {
		ix.noteEntryLocked(e.iv, i == 0)
	}
	if len(es) > 0 {
		ix.fillMaxHi(0, len(es))
	}
}

// fillMaxHi sets maxHi for the subtree over the non-empty range [l,r)
// and returns its latest end.
func (ix *IntervalIndex) fillMaxHi(l, r int) chronon.Time {
	m := (l + r) / 2
	h := ix.es[m].iv.Hi
	if l < m {
		h = max(h, ix.fillMaxHi(l, m))
	}
	if m+1 < r {
		h = max(h, ix.fillMaxHi(m+1, r))
	}
	ix.maxHi[m] = h
	return h
}

// noteEntryLocked folds one entry into the geometry statistics.
func (ix *IntervalIndex) noteEntryLocked(iv chronon.Interval, first bool) {
	ix.covered += ivLen(iv)
	if first || iv.Lo < ix.lo {
		ix.lo = iv.Lo
	}
	if first || iv.Hi > ix.hi {
		ix.hi = iv.Hi
	}
}

// ivLen returns the length of a closed interval in chronons as a float
// (the ±2^62 infinity sentinels overflow int64 arithmetic).
func ivLen(iv chronon.Interval) float64 {
	return float64(iv.Hi) - float64(iv.Lo) + 1
}

// Add absorbs a single inserted tuple at position pos.
func (ix *IntervalIndex) Add(t *core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(t, pos)
	ix.tuples++
	ix.maybeCompactLocked()
}

// AddBatch absorbs a bulk insert of tuples starting at position pos:
// one lock acquisition, one overlay append per entry, and at most one
// compaction at the end — the coalesced form of Add a relation's
// ChangeBatch notification feeds. A batch large relative to the static
// part folds into a single rebuild instead of the cascade of
// intermediate compactions per-tuple absorption would trigger.
func (ix *IntervalIndex) AddBatch(ts []*core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, t := range ts {
		ix.addLocked(t, pos+i)
	}
	ix.tuples += len(ts)
	ix.maybeCompactLocked()
}

// Replace absorbs a merge: the relation replaced old with new at pos.
// The static entries at pos go dead and the overlay's entries for pos,
// which an earlier insert or merge put there, are dropped in place.
func (ix *IntervalIndex) Replace(old, new *core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.dead == nil {
		ix.dead = make(map[int32]bool)
	}
	ix.dead[int32(pos)] = true
	ix.extra = slices.DeleteFunc(ix.extra, func(e ientry) bool { return e.ord == int32(pos) })
	for _, iv := range ix.spans(old, nil) {
		ix.entries--
		ix.covered -= ivLen(iv)
	}
	ix.addLocked(new, pos)
	ix.maybeCompactLocked()
}

func (ix *IntervalIndex) addLocked(t *core.Tuple, pos int) {
	for _, iv := range ix.spans(t, nil) {
		ix.extra = append(ix.extra, ientry{iv: iv, ord: int32(pos)})
		ix.noteEntryLocked(iv, ix.entries == 0 && len(ix.extra) == 1)
		ix.entries++
	}
}

// maybeCompactLocked folds a grown overlay back into the static part,
// keeping probe cost O(log n + k + overlay) with a small bounded
// overlay.
func (ix *IntervalIndex) maybeCompactLocked() {
	load := len(ix.extra) + len(ix.dead)
	if load <= 64 || load <= ix.entries/8 {
		return
	}
	es := make([]ientry, 0, ix.entries)
	for _, e := range ix.es {
		if !ix.dead[e.ord] {
			es = append(es, e)
		}
	}
	ix.resetLocked(append(es, ix.extra...))
}

// Tuples returns the number of tuples indexed.
func (ix *IntervalIndex) Tuples() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tuples
}

// Entries returns the number of live lifespan intervals indexed.
func (ix *IntervalIndex) Entries() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries
}

// Geometry returns the summed covered chronons of all live entries and
// the bounding interval of everything ever indexed — the raw material
// for the statistics object's lifespan density.
func (ix *IntervalIndex) Geometry() (covered float64, span chronon.Interval) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.covered, chronon.Interval{Lo: ix.lo, Hi: ix.hi}
}

// collect appends to out the positions of the live static entries in
// [l,r) that overlap [qlo,qhi], in start order, and stops once out
// holds more than max.
func (ix *IntervalIndex) collect(l, r int, qlo, qhi chronon.Time, max int, out []int32) []int32 {
	for l < r && len(out) <= max && ix.maxHi[(l+r)/2] >= qlo {
		m := (l + r) / 2
		out = ix.collect(l, m, qlo, qhi, max, out)
		e := ix.es[m]
		if e.iv.Lo > qhi {
			break
		}
		if e.iv.Hi >= qlo && !ix.dead[e.ord] {
			out = append(out, e.ord)
		}
		l = m + 1
	}
	return out
}

// hits probes the static part and scans the overlay and returns the
// positions of the live entries overlapping L — a position once per
// matching entry, in no particular order — or false once more than
// max entries have matched.
func (ix *IntervalIndex) hits(L lifespan.Lifespan, max int) ([]int32, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var pos []int32
	for i := range L.NumIntervals() {
		qv := L.IntervalAt(i)
		pos = ix.collect(0, len(ix.es), qv.Lo, qv.Hi, max, pos)
		for _, e := range ix.extra {
			if e.iv.Lo <= qv.Hi && e.iv.Hi >= qv.Lo {
				pos = append(pos, e.ord)
			}
		}
		if len(pos) > max {
			return nil, false
		}
	}
	return pos, true
}

// probe is the executor's pricing-plus-probe entry point to an
// interval index ix of the relation v pins: the pinned tuples with an
// entry overlapping L, in key order, when at most max entries match —
// and false otherwise. ix is fetched from the relation's index set per
// execution (the set replaces the object on resync) and is at least as
// new as the pin. Its ordinals are tuple positions, which appends and
// merges never move, so a match inside the pinned prefix is the
// pinned tuple there. Lifespans and value images only grow under
// merges, so the live matches are a superset of the pinned ones and
// the caller's full condition or restriction drops the excess. A key
// order that cannot be built declines the probe; the caller's
// fallback reads the same order and reports why.
func (ix *IntervalIndex) probe(v core.RelVersion, L lifespan.Lifespan, max int) ([]*core.Tuple, bool) {
	pos, ok := ix.hits(L, max)
	if !ok {
		return nil, false
	}
	ts, err := v.InKeyOrder(pos)
	return ts, err == nil
}

// overlapping is the lifespan probe: the tuples of pinned version v
// whose lifespan could share a chronon with L, in key order, when at
// most max lifespan intervals match.
func overlapping(v core.RelVersion, L lifespan.Lifespan, max int) ([]*core.Tuple, bool) {
	return Indexes(v.Rel()).Interval().probe(v, L, max)
}
