package core

import (
	"fmt"
	"slices"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// Schema evolution as operations. Figure 6 presents an evolving schema
// declaratively — ALS(VOLUME) already carries the gap. These functions
// realize the *events* that produce such lifespans: dropping an attribute
// as of a time (the "too expensive to collect" moment) and re-adding it
// later (the "cheap outside source" moment), migrating the stored
// relation in the process. Both return new relations; relations are
// immutable values.

// DropAttribute ends attribute attr's lifespan at time t: the new ALS is
// ALS ∩ [Min, t-1], and every tuple's value for attr is restricted
// accordingly. Dropping a key attribute is an error (the key must span
// the scheme lifespan). Dropping the attribute everywhere (t before the
// attribute's first definition) is an error — remove it with Project
// instead.
func DropAttribute(r *Relation, attr string, t chronon.Time) (*Relation, error) {
	a, ok := r.scheme.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("core: drop attribute: unknown attribute %s", attr)
	}
	if r.scheme.IsKey(attr) {
		return nil, fmt.Errorf("core: drop attribute: %s is a key attribute", attr)
	}
	keep := lifespan.Interval(chronon.Min, t.Prev())
	newLS := a.Lifespan.Intersect(keep)
	if newLS.IsEmpty() {
		return nil, fmt.Errorf("core: drop attribute: %s would have an empty lifespan; use Project to remove it entirely", attr)
	}
	return rewriteAttrLifespan(r, attr, newLS)
}

// AddAttributePeriod extends (or re-adds, after a drop) attribute attr's
// lifespan with [from,to]: the new ALS is ALS ∪ [from,to]. Tuples are
// unchanged — their values may now be extended into the new period with
// tuple updates or Materialize. Re-adding an unknown attribute is an
// error; introduce brand-new attributes with AddAttribute.
func AddAttributePeriod(r *Relation, attr string, from, to chronon.Time) (*Relation, error) {
	a, ok := r.scheme.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("core: add attribute period: unknown attribute %s", attr)
	}
	newLS := a.Lifespan.Union(lifespan.Interval(from, to))
	return rewriteAttrLifespan(r, attr, newLS)
}

// AddAttribute introduces a brand-new attribute with the given
// definition. Existing tuples get the nowhere-defined value for it.
func AddAttribute(r *Relation, a schema.Attribute) (*Relation, error) {
	if r.scheme.HasAttr(a.Name) {
		return nil, fmt.Errorf("core: add attribute: %s already in scheme", a.Name)
	}
	attrs := append(append([]schema.Attribute(nil), r.scheme.Attrs...), a)
	ns, err := schema.New(r.scheme.Name, r.scheme.Key, attrs...)
	if err != nil {
		return nil, err
	}
	out := NewRelation(ns)
	for _, t := range r.Tuples() {
		nt, err := NewTuple(ns, t.l, append(t.v[:len(t.v):len(t.v)], tfunc.Func{}))
		if err != nil {
			return nil, err
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rewriteAttrLifespan rebuilds the relation under a scheme where attr's
// lifespan is newLS, restricting stored values that now fall outside it.
func rewriteAttrLifespan(r *Relation, attr string, newLS lifespan.Lifespan) (*Relation, error) {
	attrs := make([]schema.Attribute, len(r.scheme.Attrs))
	copy(attrs, r.scheme.Attrs)
	for i := range attrs {
		if attrs[i].Name == attr {
			attrs[i].Lifespan = newLS
		}
	}
	// Key lifespans must still equal the scheme lifespan; recompute and
	// widen keys if the scheme lifespan grew (AddAttributePeriod).
	ls := lifespan.Empty()
	for _, a := range attrs {
		ls = ls.Union(a.Lifespan)
	}
	for i := range attrs {
		for _, k := range r.scheme.Key {
			if attrs[i].Name == k {
				attrs[i].Lifespan = ls
			}
		}
	}
	ns, err := schema.New(r.scheme.Name, r.scheme.Key, attrs...)
	if err != nil {
		return nil, err
	}
	out := NewRelation(ns)
	at := ns.Index(attr)
	for _, t := range r.Tuples() {
		nv := slices.Clone(t.v)
		nv[at] = nv[at].Restrict(t.l.Intersect(newLS))
		// Keys may need extending over a grown scheme lifespan.
		extendKeys(ns, nv, t.l)
		nt, err := NewTuple(ns, t.l, nv)
		if err != nil {
			return nil, fmt.Errorf("core: evolve %s: %w", attr, err)
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UpdateValue appends or overwrites attribute attr of the tuple with the
// given key values over [from,to], extending the tuple lifespan if
// needed. This is the history-building write operation examples use to
// model "the salary changed at t". The updated period must lie within
// the attribute's ALS.
func UpdateValue(r *Relation, keyVals []string, attr string, from, to chronon.Time, v tfunc.Func) (*Relation, error) {
	at := r.scheme.Index(attr)
	if at < 0 {
		return nil, fmt.Errorf("core: update: unknown attribute %s", attr)
	}
	old, ok := r.Lookup(keyVals...)
	if !ok {
		return nil, fmt.Errorf("core: update: no tuple with key %v", keyVals)
	}
	period := lifespan.Interval(from, to)
	if !period.SubsetOf(r.scheme.ALS(attr)) {
		return nil, fmt.Errorf("core: update: period %v outside ALS(%s) = %v", period, attr, r.scheme.ALS(attr))
	}
	nl := old.l.Union(period)
	nv := slices.Clone(old.v)
	// Layer the new value over the old via a builder.
	var b tfunc.Builder
	old.v[at].Steps(func(iv chronon.Interval, val value.Value) bool {
		b.Set(iv.Lo, iv.Hi, val)
		return true
	})
	v.Restrict(period).Steps(func(iv chronon.Interval, val value.Value) bool {
		b.Set(iv.Lo, iv.Hi, val)
		return true
	})
	nv[at] = b.Build()
	extendKeys(r.scheme, nv, nl)
	nt, err := NewTuple(r.scheme, nl, nv)
	if err != nil {
		return nil, fmt.Errorf("core: update: %w", err)
	}
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		if t == old {
			t = nt
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
