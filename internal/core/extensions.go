package core

import (
	"fmt"

	"repro/internal/lifespan"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// This file implements the two extensions the paper explicitly sketches
// but does not define:
//
// Section 5: "It would also be possible to define JOINs over the union of
// the tuple lifespans, essentially equivalent to a SELECT-IF of the
// Cartesian product; a resulting tuple will have null values for times
// outside of its contributing tuples' lifespans." — ThetaJoinOuter.
//
// Section 3 / Figure 9: the interpolation function I mapping
// "partially-represented functions" to total functions at the model
// level. Materialize applies each attribute's declared interpolator to
// complete every value over its vls.

// ThetaJoinOuter joins two relations over the UNION of the contributing
// tuples' lifespans: a pair joins if the θ condition holds at some shared
// time (the SELECT-IF reading), and the result tuple then spans
// t1.l ∪ t2.l, with each side's values left undefined — null — at times
// the other side contributed. Contrast ThetaJoin, whose result lifespan
// is exactly the agreement times and which therefore never contains
// nulls.
func ThetaJoinOuter(r1, r2 *Relation, attrA string, th value.Theta, attrB string) (*Relation, error) {
	return thetaJoin(r1, r2, attrA, th, attrB, true)
}

// Materialize lifts a relation from the representation level to the model
// level (Figure 9): for every tuple and every attribute, the attribute's
// declared interpolation function I completes the stored partial function
// to a total function on vls(t,A,R). Attributes with "discrete"
// interpolation must already be total on their vls; "step" carries values
// forward; "linear" interpolates numerics. An attribute that stores no
// value at all for a tuple stays nowhere-defined (there is nothing for I
// to extend).
func Materialize(r *Relation) (*Relation, error) {
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		nv := make([]tfunc.Func, len(t.v))
		for i, a := range r.scheme.Attrs {
			f := t.v[i]
			if f.IsNowhereDefined() {
				continue
			}
			ip, err := tfunc.ByName(a.Interp)
			if err != nil {
				return nil, err
			}
			vls := t.VLS(r.scheme, a.Name)
			total, err := ip.Interpolate(f, vls)
			if err != nil {
				return nil, fmt.Errorf("core: materialize %s.%s: %w", r.scheme.Name, a.Name, err)
			}
			nv[i] = total
		}
		nt, err := NewTuple(r.scheme, t.l, nv)
		if err != nil {
			return nil, fmt.Errorf("core: materialize: %w", err)
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NullLifespan returns, for a joined tuple, the set of times at which
// the named attribute is null — in the tuple's lifespan and the
// attribute's ALS but with no value. This is the paper's closing
// observation made queryable: outer joins introduce nulls, inner joins do
// not.
func NullLifespan(r *Relation, t *Tuple, attr string) lifespan.Lifespan {
	return t.VLS(r.scheme, attr).Minus(t.Value(attr).Domain())
}
