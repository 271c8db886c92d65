package engine

import (
	"cmp"
	"math"
	"slices"

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

// IntervalIndex indexes intervals of the tuples of one pinned version:
// their lifespans (the lifespan index, which answers "which tuples are
// alive at some time of L") or the [min, max] of one attribute's values
// (a value-range index, which answers "which tuples could hold a value
// in [lo, hi]"). A spanFunc says which. A probe costs about
// O(log n + k) against the naive O(n·|intervals|) scan.
//
// The index is one slice of entries sorted by start, read as an
// implicit balanced search tree: the range [l,r) has its node at
// m = (l+r)/2, and maxHi[m] is the latest end in [l,r), so a probe
// skips every subtree that ends before the query starts and stops at
// the first start past the query's end. It never changes once built.
type IntervalIndex struct {
	es    []ientry       // entries, sorted by iv.Lo
	maxHi []chronon.Time // implicit-tree subtree maxima over es
}

// newIntervalIndexFrom builds the lifespan index of ts, a pinned
// version's tuples.
func newIntervalIndexFrom(ts []*core.Tuple) *IntervalIndex {
	return newSpanIndexFrom(ts, lifespanSpans, idxMetrics.intervalBuilds)
}

// newSpanIndexFrom builds the index of the intervals spans gives each
// tuple of ts, a pinned version's tuples; builds counts it.
func newSpanIndexFrom(ts []*core.Tuple, spans spanFunc, builds *obs.Counter) *IntervalIndex {
	builds.Inc()
	var es []ientry
	var buf []chronon.Interval
	for ord, t := range ts {
		buf = spans(t, buf[:0])
		for _, iv := range buf {
			es = append(es, ientry{iv: iv, ord: int32(ord)})
		}
	}
	slices.SortFunc(es, func(a, b ientry) int { return cmp.Compare(a.iv.Lo, b.iv.Lo) })
	ix := &IntervalIndex{es: es, maxHi: make([]chronon.Time, len(es))}
	if len(es) > 0 {
		ix.fillMaxHi(0, len(es))
	}
	return ix
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

// collect appends to out the positions of the entries in [l,r) that
// overlap [qlo,qhi], in start order, and stops once out holds more
// than max.
func (ix *IntervalIndex) collect(l, r int, qlo, qhi chronon.Time, max int, out []int32) []int32 {
	for l < r && len(out) <= max && ix.maxHi[(l+r)/2] >= qlo {
		m := (l + r) / 2
		out = ix.collect(l, m, qlo, qhi, max, out)
		e := ix.es[m]
		if len(out) > max || e.iv.Lo > qhi {
			break
		}
		if e.iv.Hi >= qlo {
			out = append(out, e.ord)
		}
		l = m + 1
	}
	return out
}

// hits returns the positions of the entries overlapping L — a position
// once per matching entry, in no particular order — or false once more
// than max entries have matched.
func (ix *IntervalIndex) hits(L lifespan.Lifespan, max int) ([]int32, bool) {
	var pos []int32
	for i := range L.NumIntervals() {
		qv := L.IntervalAt(i)
		pos = ix.collect(0, len(ix.es), qv.Lo, qv.Hi, max, pos)
		if len(pos) > max {
			return nil, false
		}
	}
	return pos, true
}

// probe is the executor's pricing-plus-probe entry point to an
// interval index ix of the relation v pins: the pinned tuples with an
// entry overlapping L, in key order, when at most max entries match —
// and false otherwise. ix belongs to an index set built at v's version
// or later (indexes), whose matches are a superset of the pinned ones:
// InKeyOrder maps them to the pin, and the caller's full condition or
// restriction drops the excess. A key order that cannot be built
// declines the probe; the caller's fallback reads the same order and
// reports why.
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
	return indexes(v).Interval().probe(v, L, max)
}
