package engine

import (
	"fmt"

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
// equality, so they are excluded entirely. The index is built from the
// tuples of one pinned version and never changes after.
type AttrIndex struct {
	attr string
	pos  int // attr's position in the relation's scheme

	byVal   map[string][]int32
	varying []int32
	absent  int
	total   int
}

// newAttrIndexFrom builds the index from ts, the tuples of a pinned
// version of a relation on s.
func newAttrIndexFrom(s *schema.Scheme, ts []*core.Tuple, attr string) *AttrIndex {
	idxMetrics.attrBuilds.Inc()
	ix := &AttrIndex{attr: attr, pos: s.Index(attr), byVal: make(map[string][]int32)}
	for i, t := range ts {
		ix.total++
		f := t.ValueAt(ix.pos)
		switch {
		case f.IsNowhereDefined():
			ix.absent++
		case f.IsConstant():
			v, _ := f.ConstantValue()
			k := v.String()
			ix.byVal[k] = append(ix.byVal[k], int32(i))
		default:
			ix.varying = append(ix.varying, int32(i))
		}
	}
	return ix
}

// Probe returns the positions of the tuples whose attribute is constant
// and equal to v. Callers must also consider Varying(): a time-varying
// value can equal v over part of its domain without appearing in any
// bucket. Callers must not mutate the slice.
func (ix *AttrIndex) Probe(v value.Value) []int32 {
	return ix.byVal[v.String()]
}

// Varying returns the overflow list of the positions of tuples whose
// attribute value changes over time. Every equality probe unions these
// in. Callers must not mutate the slice.
func (ix *AttrIndex) Varying() []int32 {
	return ix.varying
}

// AvgBucket is the mean number of candidates one equality probe
// returns: the mean constant bucket plus the whole varying overflow.
// An index lookup join between two base relations prices the side to
// stream with it (eqProbe.bucket).
func (ix *AttrIndex) AvgBucket() float64 {
	b := float64(len(ix.varying))
	if n := len(ix.byVal); n > 0 {
		b += float64(ix.total-ix.absent-len(ix.varying)) / float64(n)
	}
	return b
}

// String summarizes the index shape for EXPLAIN output.
func (ix *AttrIndex) String() string {
	return fmt.Sprintf("attr-index(%s: %d values, %d varying, %d absent of %d)",
		ix.attr, len(ix.byVal), len(ix.varying), ix.absent, ix.total)
}

// eqProbe is the engine's one equality probe, shared by index-select
// and the index lookup join: the tuples of a pinned relation version
// whose attribute could equal a value. When the attribute is the
// relation's single-attribute key, the canonical key map the relation
// maintains is the index and the pinned version bounds the lookup.
// Otherwise the probe reads the hash index of an index set built at the
// pin's version or later (indexes) and maps the positions it finds to
// the pin (core.RelVersion.InKeyOrder): positions past the pin drop
// out, and one inside it is the pinned tuple there, since appends and
// merges never move a tuple. A later index holds a superset of the
// pinned matches (value images only grow under merges, so a pinned
// constant stays in its bucket or moves to the overflow) and the
// caller's full predicate runs on every candidate, so the mapping is
// exact, never lossy. An eqProbe is safe for concurrent use by
// partition workers.
type eqProbe struct {
	v    core.RelVersion
	attr string
	ix   *AttrIndex // nil: key probe
}

func newEqProbe(v core.RelVersion, attr string) *eqProbe {
	p := &eqProbe{v: v, attr: attr}
	if key := v.Rel().Scheme().Key; len(key) != 1 || key[0] != attr {
		p.ix = indexes(v).Attr(attr)
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

// bucket is the mean number of candidates one probe returns: 1 from
// the key map, the hash index's mean bucket plus its varying overflow
// otherwise.
func (p *eqProbe) bucket() float64 {
	if p.ix == nil {
		return 1
	}
	return p.ix.AvgBucket()
}

// candidates returns the pinned tuples whose attribute could equal one
// of vals (distinct values). A key probe answers at most one tuple per
// value, in vals order; a hash probe answers in key order, each tuple
// once. A key order that cannot be built yields no candidates and the
// error.
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
