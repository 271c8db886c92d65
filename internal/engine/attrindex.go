package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/value"
)

// AttrIndex is a hash index over one attribute of a relation. HRDM makes
// this unusually effective: key attributes are constant-valued functions
// by definition (the paper's CD domains), and in practice many non-key
// attributes are constant per tuple too (a stock's ticker, a student's
// major before any change). The index buckets the positions of the
// tuples whose value for the attribute is a constant function, keyed by
// the value's canonical string — the same rendering core.Relation.byKey
// uses — and keeps the positions of the tuples whose value varies over
// time in an overflow list that every probe must also consider. Tuples
// for which the attribute is nowhere defined can never satisfy an
// equality, so they are excluded entirely.
//
// The index is incrementally maintainable: Add absorbs a single-tuple
// insert and Replace a merge, so the relation's index set keeps it
// fresh from change notifications instead of rebuilding. Reads and writes
// are synchronized internally; slices handed out by Probe/Varying are
// stable snapshots (appends extend behind them, removals copy first).
type AttrIndex struct {
	attr string
	pos  int // attr's position in the relation's scheme

	mu      sync.RWMutex
	byVal   map[string][]int32
	varying []int32
	absent  int
	total   int
}

// newAttrIndexFrom builds the index from a stable snapshot of the
// tuples of a relation on s.
func newAttrIndexFrom(s *schema.Scheme, ts []*core.Tuple, attr string) *AttrIndex {
	idxMetrics.attrBuilds.Inc()
	ix := &AttrIndex{attr: attr, pos: s.Index(attr), byVal: make(map[string][]int32)}
	for i, t := range ts {
		ix.addLocked(t, int32(i))
	}
	return ix
}

// Add absorbs a single tuple inserted at position pos.
func (ix *AttrIndex) Add(t *core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(t, int32(pos))
}

// AddBatch absorbs a bulk insert starting at position pos under one
// lock acquisition — the coalesced form of Add a relation's ChangeBatch
// notification feeds.
func (ix *AttrIndex) AddBatch(ts []*core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, t := range ts {
		ix.addLocked(t, int32(pos+i))
	}
}

// Replace absorbs a merge: the relation replaced old with new at pos.
func (ix *AttrIndex) Replace(old, new *core.Tuple, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(old, int32(pos))
	ix.addLocked(new, int32(pos))
}

func (ix *AttrIndex) addLocked(t *core.Tuple, pos int32) {
	ix.total++
	f := t.ValueAt(ix.pos)
	switch {
	case f.IsNowhereDefined():
		ix.absent++
	case f.IsConstant():
		v, _ := f.ConstantValue()
		k := v.String()
		// Appending never disturbs a handed-out snapshot: holders read
		// only their own length.
		ix.byVal[k] = append(ix.byVal[k], pos)
	default:
		ix.varying = append(ix.varying, pos)
	}
}

func (ix *AttrIndex) removeLocked(t *core.Tuple, pos int32) {
	ix.total--
	f := t.ValueAt(ix.pos)
	switch {
	case f.IsNowhereDefined():
		ix.absent--
	case f.IsConstant():
		v, _ := f.ConstantValue()
		k := v.String()
		if nb := dropPos(ix.byVal[k], pos); len(nb) == 0 {
			delete(ix.byVal, k)
		} else {
			ix.byVal[k] = nb
		}
	default:
		ix.varying = dropPos(ix.varying, pos)
	}
}

// dropPos returns s without pos, copying first so outstanding
// snapshots of s are unaffected. Order is preserved.
func dropPos(s []int32, pos int32) []int32 {
	out := make([]int32, 0, len(s))
	for _, x := range s {
		if x != pos {
			out = append(out, x)
		}
	}
	return out
}

// Probe returns the positions of the tuples whose attribute is constant
// and equal to v. Callers must also consider Varying(): a time-varying
// value can equal v over part of its domain without appearing in any
// bucket. The returned slice is a stable snapshot.
func (ix *AttrIndex) Probe(v value.Value) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.byVal[v.String()]
}

// Varying returns the overflow list of the positions of tuples whose
// attribute value changes over time. Every equality probe unions these
// in. The returned slice is a stable snapshot.
func (ix *AttrIndex) Varying() []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.varying
}

// Stats summarizes the index's value distribution for the planner's
// selectivity estimates.
func (ix *AttrIndex) Stats() AttrStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return AttrStats{
		Rows:     ix.total,
		Distinct: len(ix.byVal),
		Varying:  len(ix.varying),
		Absent:   ix.absent,
	}
}

// AvgBucket estimates the number of candidates one equality probe
// returns: the mean constant bucket plus the whole varying overflow.
// The planner's cost model prices index lookup joins with it.
func (ix *AttrIndex) AvgBucket() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	b := float64(len(ix.varying))
	if n := len(ix.byVal); n > 0 {
		b += float64(ix.total-ix.absent-len(ix.varying)) / float64(n)
	}
	return b
}

// String summarizes the index shape for EXPLAIN output.
func (ix *AttrIndex) String() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return fmt.Sprintf("attr-index(%s: %d values, %d varying, %d absent of %d)",
		ix.attr, len(ix.byVal), len(ix.varying), ix.absent, ix.total)
}

// eqProbe is the engine's one equality probe, shared by index-select
// and the index lookup join: the tuples of a pinned relation version
// whose attribute could equal a value. When the attribute is the
// relation's single-attribute key, the canonical key map the relation
// maintains is the index and the pinned version bounds the lookup.
// Otherwise the probe reads the relation's live hash index — fetched
// here, per execution, because the index set replaces the object on
// resync — and maps the positions it finds to the pin
// (core.RelVersion.InKeyOrder): positions past the pin drop out, and
// one inside it is the pinned tuple there, since appends and merges
// never move a tuple. The live index holds a superset of the pinned
// matches (value images only grow under merges, so a pinned constant
// stays in its bucket or moves to the overflow) and the caller's full
// predicate runs on every candidate, so the mapping is exact, never
// lossy. An eqProbe is safe for concurrent use by partition workers.
type eqProbe struct {
	v    core.RelVersion
	attr string
	ix   *AttrIndex // nil: key probe
}

func newEqProbe(v core.RelVersion, attr string) *eqProbe {
	p := &eqProbe{v: v, attr: attr}
	if key := v.Rel().Scheme().Key; len(key) != 1 || key[0] != attr {
		p.ix = Indexes(v.Rel()).Attr(attr)
	}
	return p
}

// String names the index for EXPLAIN.
func (p *eqProbe) String() string {
	if p.ix == nil {
		return fmt.Sprintf("key-index %s.%s", p.v.Rel().Scheme().Name, p.attr)
	}
	return p.ix.String()
}

// candidates returns the pinned tuples whose attribute could equal one
// of vals (distinct values). A key probe answers at most one tuple per
// value, in vals order; a hash probe answers in key order, each tuple
// once — the same pinned tuple can surface through a bucket read
// before a merge turns its value varying and the overflow read after
// it. The buckets are read before the overflow for that reason: the
// merge cannot hide the tuple from both. A key order that cannot be
// built yields no candidates and the error.
func (p *eqProbe) candidates(vals ...value.Value) ([]*core.Tuple, error) {
	if p.ix == nil {
		var out []*core.Tuple
		for _, val := range vals {
			if t, ok := p.v.LookupKey(value.KeyOf(val)); ok {
				out = append(out, t)
			}
		}
		return out, nil
	}
	var pos []int32
	for _, val := range vals {
		pos = append(pos, p.ix.Probe(val)...)
	}
	return p.v.InKeyOrder(append(pos, p.ix.Varying()...))
}
