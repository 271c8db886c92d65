package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/value"
)

// AttrIndex is a hash index over one attribute of a relation. HRDM makes
// this unusually effective: key attributes are constant-valued functions
// by definition (the paper's CD domains), and in practice many non-key
// attributes are constant per tuple too (a stock's ticker, a student's
// major before any change). The index buckets the tuples whose value for
// the attribute is a constant function, keyed by the value's canonical
// string — the same rendering core.Relation.byKey uses — and keeps the
// tuples whose value varies over time in an overflow list that every
// probe must also consider. Tuples for which the attribute is nowhere
// defined can never satisfy an equality, so they are excluded entirely.
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
	byVal   map[string][]*core.Tuple
	varying []*core.Tuple
	absent  int
	total   int
}

// newAttrIndexFrom builds the index from a stable snapshot of the
// tuples of a relation on s.
func newAttrIndexFrom(s *schema.Scheme, ts []*core.Tuple, attr string) *AttrIndex {
	idxMetrics.attrBuilds.Inc()
	ix := &AttrIndex{attr: attr, pos: s.Index(attr), byVal: make(map[string][]*core.Tuple)}
	for _, t := range ts {
		ix.addLocked(t)
	}
	return ix
}

// Add absorbs a single inserted tuple.
func (ix *AttrIndex) Add(t *core.Tuple) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(t)
}

// AddBatch absorbs a bulk insert under one lock acquisition — the
// coalesced form of Add a relation's ChangeBatch notification feeds.
func (ix *AttrIndex) AddBatch(ts []*core.Tuple) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range ts {
		ix.addLocked(t)
	}
}

// Replace absorbs a merge: the relation replaced old with new in place.
func (ix *AttrIndex) Replace(old, new *core.Tuple) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(old)
	ix.addLocked(new)
}

func (ix *AttrIndex) addLocked(t *core.Tuple) {
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
		ix.byVal[k] = append(ix.byVal[k], t)
	default:
		ix.varying = append(ix.varying, t)
	}
}

func (ix *AttrIndex) removeLocked(t *core.Tuple) {
	ix.total--
	f := t.ValueAt(ix.pos)
	switch {
	case f.IsNowhereDefined():
		ix.absent--
	case f.IsConstant():
		v, _ := f.ConstantValue()
		k := v.String()
		if nb := dropTuple(ix.byVal[k], t); len(nb) == 0 {
			delete(ix.byVal, k)
		} else {
			ix.byVal[k] = nb
		}
	default:
		ix.varying = dropTuple(ix.varying, t)
	}
}

// dropTuple returns s without t, copying first so outstanding snapshots
// of s are unaffected. Order is preserved.
func dropTuple(s []*core.Tuple, t *core.Tuple) []*core.Tuple {
	out := make([]*core.Tuple, 0, len(s))
	for _, x := range s {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

// Probe returns the tuples whose attribute is constant and equal to v.
// Callers must also consider Varying(): a time-varying value can equal v
// over part of its domain without appearing in any bucket. The returned
// slice is a stable snapshot.
func (ix *AttrIndex) Probe(v value.Value) []*core.Tuple {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.byVal[v.String()]
}

// Varying returns the overflow list of tuples whose attribute value
// changes over time. Every equality probe unions these in. The returned
// slice is a stable snapshot.
func (ix *AttrIndex) Varying() []*core.Tuple {
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
// resync — and maps what it finds back to the pin: newer
// tuples drop out, merged successors become their pinned forms. The
// live index holds a superset of the pinned matches (value images only
// grow under merges) and the caller's full predicate runs on every
// candidate, so the mapping is exact, never lossy. An eqProbe is safe
// for concurrent use by partition workers.
type eqProbe struct {
	v    core.RelVersion
	attr string
	ix   *AttrIndex // nil: key probe
	// varying memoizes the pinned form of ix's varying overflow by the
	// live slice's identity: Varying() hands out stable snapshots
	// (appends extend behind them, removals copy first), so the same
	// (pointer, length) means the same contents, and a join pays
	// O(varying) only when a merge actually lands mid-stream, not per
	// streamed tuple. Racing workers at worst both compute it.
	varying atomic.Pointer[pinnedVarying]
}

type pinnedVarying struct{ live, pinned []*core.Tuple }

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
// of vals (distinct values): their constant buckets first, then the
// varying overflow. The order matters under a concurrent writer — a
// merge that turns a pinned-constant tuple varying after its bucket was
// read must still find it in the overflow read afterwards — and is why
// the result is de-duplicated by pinned identity: the same pinned tuple
// can surface through a bucket read before such a merge and the
// overflow read after it.
func (p *eqProbe) candidates(vals ...value.Value) []*core.Tuple {
	var out []*core.Tuple
	if p.ix == nil {
		for _, val := range vals {
			if t, ok := p.v.LookupKey(value.KeyOf(val)); ok {
				out = append(out, t)
			}
		}
		return out
	}
	for _, val := range vals {
		out = append(out, p.ix.Probe(val)...)
	}
	nb := len(out)
	live := p.ix.Varying()
	out = append(out, live...)
	if p.v.Rel().Version() == p.v.Version() {
		// Nothing was published since the pin, so the index (at least as
		// new as the pin, no newer than the relation) is the pinned state.
		return out
	}
	out = resolve(p.v, out[:nb], out[:0])
	if len(live) == 0 {
		return out
	}
	m := p.varying.Load()
	if m == nil || len(m.live) != len(live) || &m.live[0] != &live[0] {
		m = &pinnedVarying{live: live, pinned: resolve(p.v, live, nil)}
		p.varying.Store(m)
	}
	seen := make(map[*core.Tuple]bool, len(out)+len(m.pinned))
	for _, t := range out {
		seen[t] = true
	}
	for _, t := range m.pinned {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// resolve appends to out the pinned counterparts of the live tuples in
// cand, dropping those whose object did not exist at the pin.
func resolve(v core.RelVersion, cand, out []*core.Tuple) []*core.Tuple {
	for _, t := range cand {
		if pt, ok := v.Resolve(t); ok {
			out = append(out, pt)
		}
	}
	return out
}
