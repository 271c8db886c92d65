package core

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/rel"
	"repro/internal/value"
)

// Snapshot extracts the classical relation state at time s: one flat
// tuple per historical tuple alive at s whose every attribute (with
// lifespan covering s) is defined there. This realizes the paper's
// Section 5 reduction — "a traditional relation r is just a special case
// of an historical relation r_H" viewed at a single time — and is the
// "state at time t" query of experiment E11.
//
// Attributes whose ALS does not cover s are dropped from the snapshot
// scheme (the schema did not define them then); tuples alive at s but
// missing a value for a retained attribute are skipped, since classical
// relations have no nulls.
func Snapshot(r *Relation, s chronon.Time) (*rel.Relation, error) {
	var attrs []string
	var doms []value.Domain
	var pos []int
	for i, a := range r.scheme.Attrs {
		if a.Lifespan.Contains(s) {
			attrs = append(attrs, a.Name)
			doms = append(doms, a.Domain)
			pos = append(pos, i)
		}
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: snapshot at %v: no attribute of %s is defined then", s, r.scheme.Name)
	}
	var key []string
	for _, k := range r.scheme.Key {
		for _, a := range attrs {
			if a == k {
				key = append(key, k)
			}
		}
	}
	rs, err := rel.NewScheme(r.scheme.Name+"@"+s.String(), key, attrs, doms)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(rs)
	for _, t := range r.Tuples() {
		if !t.l.Contains(s) {
			continue
		}
		nt := make(rel.Tuple, len(attrs))
		complete := true
		for i, p := range pos {
			v, ok := t.v[p].At(s)
			if !ok {
				complete = false
				break
			}
			nt[i] = v
		}
		if !complete {
			continue
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rename returns a copy of r with every attribute prefixed "prefix.",
// used to disambiguate operands before Product, ThetaJoin and TimeJoin
// when schemes share attribute names.
func (r *Relation) Rename(prefix string) (*Relation, error) {
	rs, err := r.scheme.Rename(prefix)
	if err != nil {
		return nil, err
	}
	ts := r.Tuples()
	out := make([]*Tuple, len(ts))
	for i, t := range ts {
		out[i] = t.Renamed(rs)
	}
	return NewRelationFromTuples(rs, out)
}
