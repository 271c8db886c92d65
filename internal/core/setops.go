package core

import (
	"fmt"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
)

// Union implements r1 ∪ r2 (Section 4.1):
//
//	r1 ∪ r2 = { t on R3 | t ∈ r1 or t ∈ r2 },
//	R3 = <A1, K1, ALS1 ∪ ALS2, DOM1>.
//
// This is the plain set-theoretic union the paper shows to be
// counter-intuitive for historical relations (Figure 11): an object
// present in both operands with different histories would appear twice,
// violating the key condition — that case is reported as an error, and
// UnionMerge is the object-respecting alternative.
func Union(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.UnionScheme, false)
	if err != nil {
		return nil, err
	}
	for _, t := range r1.Tuples() {
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	for _, t := range r2.Tuples() {
		if prev, ok := out.lookupTuple(t); ok {
			if !prev.Equal(t) {
				return nil, fmt.Errorf("core: union: key %s present in both operands with different histories; use UnionMerge",
					t.key(out.scheme))
			}
			continue
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Intersect implements r1 ∩ r2 (Section 4.1): tuples present, as whole
// historical objects with identical histories, in both operands.
func Intersect(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.IntersectScheme, false)
	if err != nil {
		return nil, err
	}
	for _, t := range r1.Tuples() {
		u, ok := r2.lookupTuple(t)
		if ok && t.Equal(u) {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Diff implements r1 − r2 (Section 4.1): { t on R1 | t ∈ r1 and t ∉ r2 },
// with tuple membership meaning an identical historical tuple.
func Diff(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.DiffScheme, false)
	if err != nil {
		return nil, err
	}
	for _, t := range r1.Tuples() {
		if u, ok := r2.lookupTuple(t); ok && t.Equal(u) {
			continue
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnionMerge implements the object-based union r1 ∪o r2 (Section 4.1):
//
//	r1 ∪o r2 = { t | t ∈ r1 and t is not matched in r2
//	            ∨ t ∈ r2 and t is not matched in r1
//	            ∨ ∃t1 ∈ r1 ∃t2 ∈ r2 [t = t1 + t2] }
//
// "Merging" tuples of corresponding objects produces the r1 + r2 of
// Figure 11 rather than duplicating the object. Operands must be
// merge-compatible (same attributes, domains, and key). Matched tuples
// that are not mergable (contradicting histories) are an error.
func UnionMerge(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.UnionScheme, true)
	if err != nil {
		return nil, err
	}
	for _, t1 := range r1.Tuples() {
		t2, ok := r2.lookupTuple(t1)
		if !ok {
			// Not matched in r2.
			if err := out.Insert(t1); err != nil {
				return nil, err
			}
			continue
		}
		if !t1.Mergable(t2, out.scheme) {
			return nil, fmt.Errorf("core: union-merge: key %s has contradicting histories", t1.key(out.scheme))
		}
		m, err := t1.Merge(t2)
		if err != nil {
			return nil, err
		}
		if err := out.Insert(m); err != nil {
			return nil, err
		}
	}
	for _, t2 := range r2.Tuples() {
		if _, ok := r1.lookupTuple(t2); !ok {
			if err := out.Insert(t2); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// IntersectMerge implements r1 ∩o r2 (Section 4.1):
//
//	r1 ∩o r2 = { t | ∃t1 ∈ r1 ∃t2 ∈ r2 [t1, t2 mergable ∧ t.l = t1.l ∩ t2.l
//	             ∧ ∀A ∀s ∈ t.l  t1.v(A)(s) = t2.v(A)(s) = t.v(A)(s)] }
//
// The result holds each shared object over the times both operands agree
// on it; objects whose lifespans do not intersect contribute nothing.
func IntersectMerge(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.IntersectScheme, true)
	if err != nil {
		return nil, err
	}
	for _, t1 := range r1.Tuples() {
		t2, ok := r2.lookupTuple(t1)
		if !ok || !t1.Mergable(t2, r1.scheme) {
			continue
		}
		nt := t1.restrict(t2.l)
		if nt == nil {
			continue
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DiffMerge implements r1 −o r2 (Section 4.1):
//
//	r1 −o r2 = { t | t ∈ r1 and t is not matched in r2
//	            ∨ ∃t1 ∈ r1 ∃t2 ∈ r2 [t1, t2 mergable ∧ t.l = t1.l − t2.l
//	              ∧ ∀A  t.v(A) = t1.v(A)|t.l] }
//
// Each object keeps the part of its history not covered by r2. Objects
// wholly covered (t1.l ⊆ t2.l) vanish.
func DiffMerge(r1, r2 *Relation) (*Relation, error) {
	out, r2, err := setOp(r1, r2, schema.DiffScheme, true)
	if err != nil {
		return nil, err
	}
	for _, t1 := range r1.Tuples() {
		t2, ok := r2.lookupTuple(t1)
		if !ok || !t1.Mergable(t2, r1.scheme) {
			// Not matched in r2 (an unmergable same-key tuple is "not
			// matched" per the paper's definition of matched).
			if err := out.Insert(t1); err != nil {
				return nil, err
			}
			continue
		}
		nl := t1.l.Minus(t2.l)
		if nl.IsEmpty() {
			continue
		}
		nt := t1.restrict(nl)
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Product implements the Cartesian product r1 × r2 (Section 4.1) for
// schemes with disjoint attribute sets. Following the paper's closing
// discussion, the resulting tuple is "defined over the union of the
// lifespans of the participating tuples, and thus potentially contain[s]
// null values": t.l = t1.l ∪ t2.l, with each side's attribute values
// defined only on that side's original vls (undefined — null — elsewhere).
func Product(r1, r2 *Relation) (*Relation, error) {
	rs, err := schema.ProductScheme(r1.scheme, r2.scheme)
	if err != nil {
		return nil, err
	}
	c := newConcat(rs, r1.scheme, r2.scheme)
	return joinEach("product", r1, r2, rs, false, func(t1, t2 *Tuple) (*Tuple, error) {
		// Values stay unrestricted; key values must cover the combined
		// lifespan, so each side's constant keys extend over the union
		// lifespan (their constant value identifies the object at all
		// times; the paper's nulls concern non-key values).
		return c.pair(t1, t2, t1.l.Union(t2.l), false)
	})
}

// setOp begins a set operator over r1 and r2, whose result scheme rule
// gives (merge for the object-based form): it returns the empty result
// on that scheme and r2 laid out in r1's attribute order.
func setOp(r1, r2 *Relation, rule func(a, b *schema.Scheme, merge bool) (*schema.Scheme, error), merge bool) (*Relation, *Relation, error) {
	rs, err := rule(r1.scheme, r2.scheme, merge)
	if err != nil {
		return nil, nil, err
	}
	r2, err = relay(r2, r1.scheme)
	return NewRelation(rs), r2, err
}

// relay returns r with its tuples laid out in the attribute order of s,
// whose attributes r's scheme shares: r itself when its scheme already
// lists them in that order, and otherwise a relation on r's scheme
// re-listed in s's order, each tuple a new header over a permuted value
// slice that shares the functions themselves.
func relay(r *Relation, s *schema.Scheme) (*Relation, error) {
	if r.scheme.SameOrder(s) {
		return r, nil
	}
	ns, pos, err := r.scheme.InOrderOf(s)
	if err != nil {
		return nil, err
	}
	ts := r.Tuples()
	out := make([]*Tuple, len(ts))
	for i, t := range ts {
		nv := make([]tfunc.Func, len(pos))
		for j, p := range pos {
			nv[j] = t.v[p]
		}
		out[i] = &Tuple{l: t.l, s: ns, v: nv}
	}
	return NewRelationFromTuples(ns, out)
}

// extendKeys widens each key value of nv, a tuple's values on s, to its
// vls over lifespan l.
func extendKeys(s *schema.Scheme, nv []tfunc.Func, l lifespan.Lifespan) {
	for _, k := range s.KeyIndex() {
		nv[k] = extendConstant(nv[k], l.Intersect(s.Attrs[k].Lifespan))
	}
}

// extendConstant widens a constant function to cover ls. A function
// already defined on exactly ls is returned as is: its values share one
// kind (domain membership is by kind), so it equals Constant(ls, v).
func extendConstant(f tfunc.Func, ls lifespan.Lifespan) tfunc.Func {
	v, ok := f.ConstantValue()
	if !ok || f.DomainEqual(ls) {
		return f
	}
	return tfunc.Constant(ls, v)
}
