package engine

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
)

// ientry is one lifespan interval of one tuple. A tuple with a gapped
// lifespan (the paper's "reincarnation") contributes one entry per
// incarnation; ord is the tuple's insertion ordinal, used to de-duplicate
// multi-interval matches and keep candidate order deterministic.
type ientry struct {
	iv  chronon.Interval
	ord int
	t   *core.Tuple
}

// IntervalIndex is a centered interval tree over the lifespan intervals
// of a relation's tuples. It answers "which tuples are alive at some
// time of L" in O(log n + k) against the naive O(n·|intervals|) scan.
// The tree itself is static, but the index as a whole is incrementally
// maintainable: single-tuple inserts and merges land in a small overlay
// (extra entries plus a dead set for merged-away tuples) that queries
// scan linearly alongside the tree; when the overlay grows past a
// threshold it is compacted back into a fresh tree. The catalog feeds
// the overlay from relation change notifications.
type IntervalIndex struct {
	mu       sync.RWMutex
	root     *inode
	tuples   int // tuples indexed (logical, including overlay)
	entries  int // lifespan intervals indexed (logical)
	maxDepth int

	// overlay: entries added since the tree was built, and tree/overlay
	// entries whose tuple a merge replaced.
	extra []ientry
	dead  map[*core.Tuple]bool

	// lifespan geometry for the statistics object. covered is the
	// summed length of all live entries (in chronons, as float64 to
	// absorb the ±2^62 sentinels); lo/hi bound every entry ever added —
	// merges may leave them over-wide, which only softens estimates.
	covered float64
	lo, hi  chronon.Time
}

// newIntervalIndexFrom builds the index from a stable tuple snapshot.
func newIntervalIndexFrom(ts []*core.Tuple) *IntervalIndex {
	var es []ientry
	for ord, t := range ts {
		for _, iv := range t.Lifespan().Intervals() {
			es = append(es, ientry{iv: iv, ord: ord, t: t})
		}
	}
	ix := &IntervalIndex{tuples: len(ts)}
	ix.resetTreeLocked(es)
	return ix
}

// resetTreeLocked replaces the tree with one built from es and clears
// the overlay. Callers hold ix.mu (or own ix exclusively).
func (ix *IntervalIndex) resetTreeLocked(es []ientry) {
	idxMetrics.intervalBuilds.Inc()
	ix.entries = len(es)
	ix.maxDepth = 0
	ix.extra = nil
	ix.dead = nil
	ix.covered, ix.lo, ix.hi = 0, 0, 0
	for i, e := range es {
		ix.noteEntryLocked(e.iv, i == 0)
	}
	ix.root = build(es, 1, &ix.maxDepth)
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
// ChangeBatch notification feeds. A batch large relative to the tree
// folds into a single rebuild instead of the cascade of intermediate
// compactions per-tuple absorption would trigger.
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
func (ix *IntervalIndex) Replace(old, new *core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.dead == nil {
		ix.dead = make(map[*core.Tuple]bool)
	}
	ix.dead[old] = true
	ix.entries -= old.Lifespan().NumIntervals()
	for _, iv := range old.Lifespan().Intervals() {
		ix.covered -= ivLen(iv)
	}
	ix.addLocked(new, pos)
	ix.maybeCompactLocked()
}

func (ix *IntervalIndex) addLocked(t *core.Tuple, pos int) {
	for _, iv := range t.Lifespan().Intervals() {
		ix.extra = append(ix.extra, ientry{iv: iv, ord: pos, t: t})
		ix.noteEntryLocked(iv, ix.entries == 0 && len(ix.extra) == 1)
		ix.entries++
	}
}

// maybeCompactLocked folds a grown overlay back into the tree, keeping
// query cost O(log n + k + overlay) with a small bounded overlay.
func (ix *IntervalIndex) maybeCompactLocked() {
	load := len(ix.extra) + len(ix.dead)
	if load <= 64 || load <= ix.entries/8 {
		return
	}
	es := make([]ientry, 0, ix.entries)
	walk(ix.root, func(e ientry) {
		if !ix.dead[e.t] {
			es = append(es, e)
		}
	})
	for _, e := range ix.extra {
		if !ix.dead[e.t] {
			es = append(es, e)
		}
	}
	tuples := ix.tuples
	ix.resetTreeLocked(es)
	ix.tuples = tuples
}

// walk visits every entry stored in the tree.
func walk(n *inode, f func(ientry)) {
	if n == nil {
		return
	}
	for _, e := range n.byLo {
		f(e)
	}
	walk(n.left, f)
	walk(n.right, f)
}

// inode is one node of the centered tree: entries overlapping center are
// stored here (sorted two ways for one-sided queries), strictly earlier
// entries descend left, strictly later ones right.
type inode struct {
	center      chronon.Time
	left, right *inode
	byLo        []ientry // sorted by iv.Lo ascending
	byHi        []ientry // sorted by iv.Hi descending
}

// build recursively constructs the centered tree. The center is the
// median interval midpoint, which keeps the tree balanced for the
// clustered lifespans real histories produce.
func build(es []ientry, depth int, maxDepth *int) *inode {
	if len(es) == 0 {
		return nil
	}
	if depth > *maxDepth {
		*maxDepth = depth
	}
	mids := make([]chronon.Time, len(es))
	for i, e := range es {
		mids[i] = e.iv.Lo + (e.iv.Hi-e.iv.Lo)/2
	}
	sort.Slice(mids, func(i, j int) bool { return mids[i] < mids[j] })
	n := &inode{center: mids[len(mids)/2]}
	var left, right []ientry
	for _, e := range es {
		switch {
		case e.iv.Hi < n.center:
			left = append(left, e)
		case e.iv.Lo > n.center:
			right = append(right, e)
		default:
			n.byLo = append(n.byLo, e)
		}
	}
	n.byHi = append([]ientry(nil), n.byLo...)
	sort.Slice(n.byLo, func(i, j int) bool { return n.byLo[i].iv.Lo < n.byLo[j].iv.Lo })
	sort.Slice(n.byHi, func(i, j int) bool { return n.byHi[i].iv.Hi > n.byHi[j].iv.Hi })
	n.left = build(left, depth+1, maxDepth)
	n.right = build(right, depth+1, maxDepth)
	return n
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

// visit walks every entry whose interval overlaps [qlo,qhi].
func (n *inode) visit(qlo, qhi chronon.Time, f func(ientry)) {
	if n == nil {
		return
	}
	switch {
	case qhi < n.center:
		// Node entries all reach center > qhi, so they overlap iff they
		// start by qhi.
		for _, e := range n.byLo {
			if e.iv.Lo > qhi {
				break
			}
			f(e)
		}
		n.left.visit(qlo, qhi, f)
	case qlo > n.center:
		// Node entries all start by center < qlo: overlap iff they reach qlo.
		for _, e := range n.byHi {
			if e.iv.Hi < qlo {
				break
			}
			f(e)
		}
		n.right.visit(qlo, qhi, f)
	default:
		// The query straddles the center: every node entry overlaps.
		for _, e := range n.byLo {
			f(e)
		}
		n.left.visit(qlo, qhi, f)
		n.right.visit(qlo, qhi, f)
	}
}

// hits walks the tree and overlay once and returns the live entries
// overlapping L, one per tuple, in position order — the deterministic
// candidate order the plan nodes stream — or false once more than max
// entries have matched, before paying for the sort an abandoned index
// plan would discard. Entries whose tuple a merge replaced are skipped;
// the merged tuple's overlay entries reuse the original ordinal.
func (ix *IntervalIndex) hits(L lifespan.Lifespan, max int) ([]ientry, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var es []ientry
	hit := func(e ientry) {
		if len(es) <= max && !ix.dead[e.t] {
			es = append(es, e)
		}
	}
	for i := range L.NumIntervals() {
		qv := L.IntervalAt(i)
		ix.root.visit(qv.Lo, qv.Hi, hit)
		for _, e := range ix.extra {
			if e.iv.Lo <= qv.Hi && e.iv.Hi >= qv.Lo {
				hit(e)
			}
		}
	}
	if len(es) > max {
		return nil, false
	}
	// A tuple with several incarnations inside L matched once per
	// interval; its entries share an ordinal.
	slices.SortFunc(es, func(a, b ientry) int { return a.ord - b.ord })
	return slices.CompactFunc(es, func(a, b ientry) bool { return a.ord == b.ord }), true
}

// overlapping is the executor's pricing-plus-probe entry point: the
// tuples of pinned version v whose lifespan could share a chronon with
// L, in pinned order, when the relation's interval index matches at
// most max entries — and false otherwise. The index is fetched from the
// catalog here, per execution (the catalog replaces the object on
// resync and eviction), and is at least as new as the pin; its
// ordinals are tuple positions, which appends and merges never move, so
// a match at a position inside the pinned prefix is the pinned tuple
// there. Lifespans only grow under merges, so the live matches are a
// superset of the pinned ones and the caller's restriction to L drops
// the excess.
func overlapping(v core.RelVersion, L lifespan.Lifespan, max int) ([]*core.Tuple, bool) {
	es, ok := Indexes(v.Rel()).Interval().hits(L, max)
	if !ok {
		return nil, false
	}
	pinned := v.Tuples()
	out := make([]*core.Tuple, 0, len(es))
	for _, e := range es {
		if e.ord >= len(pinned) {
			break
		}
		out = append(out, pinned[e.ord])
	}
	return out, true
}
