package core

import (
	"fmt"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// joinScheme builds R3 = <A1 ∪ A2, K1 ∪ K2, ALS1 ∪ ALS2, DOM1 ∪ DOM2>,
// the result scheme of every JOIN flavor (Section 4.6).
func joinScheme(r1, r2 *Relation) (*schema.Scheme, error) {
	return schema.ConcatScheme(r1.scheme, r2.scheme, r1.scheme.Name+"⋈"+r2.scheme.Name)
}

// concatTuple builds the joined tuple over lifespan nl: t1's attributes
// and t2's attributes, all restricted to nl, with constant keys extended
// to cover their vls in the result scheme. Shared attributes (natural
// join) take t1's restriction — the definitions guarantee t1 and t2 agree
// on them over nl. Returns nil if nl is empty.
func concatTuple(rs *schema.Scheme, t1, t2 *Tuple, nl lifespan.Lifespan) (*Tuple, error) {
	if nl.IsEmpty() {
		return nil, nil
	}
	nv := make(map[string]tfunc.Func, len(t1.v)+len(t2.v))
	for a, f := range t2.v {
		nv[a] = f.Restrict(nl)
	}
	for a, f := range t1.v {
		nv[a] = f.Restrict(nl)
	}
	// Keys of both operands identify the joined object; their constant
	// values must cover the joined tuple's whole key vls.
	for _, k := range rs.Key {
		nv[k] = extendConstant(nv[k], nl.Intersect(rs.ALS(k)))
	}
	return NewTuple(rs, nl, nv)
}

// ThetaJoin implements r1 JOIN r2 [A θ B] (Section 4.6):
//
//	t.l = { s | t_r1(A)(s) θ t_r2(B)(s) },
//	t.v(R1−A) = t_r1.v(R1−A)|t.l, t.v(R2−B) = t_r2.v(R2−B)|t.l,
//	t.v(A) = t_r1.v(A)|t.l, t.v(B) = t_r2.v(B)|t.l.
//
// Two tuples join over exactly those times at which their A and B values
// stand in the θ relationship; per the paper's closing discussion this is
// "equivalent to the appropriate SELECT-WHEN of the Cartesian product,
// and thus no nulls result". Operand schemes must have disjoint
// attribute sets (rename first if needed).
func ThetaJoin(r1, r2 *Relation, attrA string, th value.Theta, attrB string) (*Relation, error) {
	if !r1.scheme.DisjointAttrs(r2.scheme) {
		return nil, fmt.Errorf("core: theta-join: schemes share attributes; rename first")
	}
	if !r1.scheme.HasAttr(attrA) {
		return nil, fmt.Errorf("core: theta-join: %s not in %s", attrA, r1.scheme.Name)
	}
	if !r2.scheme.HasAttr(attrB) {
		return nil, fmt.Errorf("core: theta-join: %s not in %s", attrB, r2.scheme.Name)
	}
	rs, err := joinScheme(r1, r2)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rs)
	ts2 := r2.Tuples()
	for _, t1 := range r1.Tuples() {
		f1 := t1.Value(attrA)
		if f1.IsNowhereDefined() {
			continue
		}
		for _, t2 := range ts2 {
			nl, err := thetaTimes(f1, t2.Value(attrB), th)
			if err != nil {
				return nil, fmt.Errorf("core: theta-join: %w", err)
			}
			nt, err := concatTuple(rs, t1, t2, nl)
			if err != nil {
				return nil, fmt.Errorf("core: theta-join: %w", err)
			}
			if nt == nil {
				continue
			}
			if err := out.Insert(nt); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// thetaTimes computes { s | f(s) θ g(s) } over the joint domain of two
// temporal functions in one merge walk over both step lists: each pair
// of overlapping steps is compared once, and the overlaps arrive in
// ascending order, so the satisfying ones build the lifespan directly.
func thetaTimes(f, g tfunc.Func, th value.Theta) (lifespan.Lifespan, error) {
	nf, ng := f.NumSteps(), g.NumSteps()
	b := lifespan.NewBuilder(nf + ng - 1)
	for i, j := 0, 0; i < nf && j < ng; {
		fiv, v := f.StepAt(i)
		giv, w := g.StepAt(j)
		if iv := fiv.Intersect(giv); !iv.IsEmpty() {
			ok, err := th.Apply(v, w)
			if err != nil {
				return lifespan.Empty(), err
			}
			if ok {
				b.Add(iv)
			}
		}
		if fiv.Hi < giv.Hi {
			i++
		} else {
			j++
		}
	}
	return b.Lifespan(), nil
}

// EquiJoin implements r1 [A = B] r2, the special case of θ-JOIN the paper
// simplifies to:
//
//	t.l = vls(t_r1,A,R1) ∩ vls(t_r2,B,R2) restricted to agreement,
//	t.v(A) = t.v(B) = t_r1.v(A) ∩ t_r2.v(B).
//
// Implemented as ThetaJoin with θ being equality.
func EquiJoin(r1, r2 *Relation, attrA, attrB string) (*Relation, error) {
	return ThetaJoin(r1, r2, attrA, value.EQ, attrB)
}

// NaturalJoin implements r1 NATURAL-JOIN r2 (Section 4.6): with X = A1 ∩
// A2 the common attributes,
//
//	t.l = vls(t_r1,X,R1) ∩ vls(t_r2,X,R2) at times of agreement on X,
//	t.v(R1) = t_r1.v(R1)|t.l, t.v(R2) = t_r2.v(R2)|t.l.
//
// "The natural join is just a projection of the equijoin": shared
// attributes appear once in the result.
func NaturalJoin(r1, r2 *Relation) (*Relation, error) {
	common := r1.scheme.CommonAttrs(r2.scheme)
	if len(common) == 0 {
		return nil, fmt.Errorf("core: natural-join: %s and %s share no attributes",
			r1.scheme.Name, r2.scheme.Name)
	}
	rs, err := joinScheme(r1, r2)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rs)
	ts2 := r2.Tuples()
	for _, t1 := range r1.Tuples() {
		for _, t2 := range ts2 {
			// Agreement lifespan: times where every common attribute is
			// defined in both and equal.
			nl := t1.l.Intersect(t2.l)
			for _, x := range common {
				agree, err := thetaTimes(t1.Value(x), t2.Value(x), value.EQ)
				if err != nil {
					return nil, fmt.Errorf("core: natural-join: %w", err)
				}
				nl = nl.Intersect(agree)
			}
			nt, err := concatTuple(rs, t1, t2, nl)
			if err != nil {
				return nil, fmt.Errorf("core: natural-join: %w", err)
			}
			if nt == nil {
				continue
			}
			if err := out.InsertMerging(nt); err != nil {
				return nil, fmt.Errorf("core: natural-join: %w", err)
			}
		}
	}
	return out, nil
}

// TimeJoin implements r1 [@A] r2 (Section 4.6), defined for a time-valued
// attribute A of R1 (DOM(A) ⊆ TT). "Essentially such a JOIN serves as a
// join of dynamic TIME-SLICEs of both relations": each r1 tuple's image
// of t(A) — the set of times its A attribute refers to — slices both the
// r1 tuple and each r2 tuple, and the pair joins over the intersection of
// the sliced lifespans.
func TimeJoin(r1, r2 *Relation, attr string) (*Relation, error) {
	a, ok := r1.scheme.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("core: time-join: unknown attribute %s", attr)
	}
	if !a.TimeValued() {
		return nil, fmt.Errorf("core: time-join: attribute %s is %s-valued, not time-valued",
			attr, a.Domain.Kind)
	}
	if !r1.scheme.DisjointAttrs(r2.scheme) {
		return nil, fmt.Errorf("core: time-join: schemes share attributes; rename first")
	}
	rs, err := joinScheme(r1, r2)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rs)
	ts2 := r2.Tuples()
	for _, t1 := range r1.Tuples() {
		img, err := t1.Value(attr).TimeImage()
		if err != nil {
			return nil, fmt.Errorf("core: time-join: %w", err)
		}
		if img.IsEmpty() {
			continue
		}
		for _, t2 := range ts2 {
			nl := img.Intersect(t1.l).Intersect(t2.l)
			nt, err := concatTuple(rs, t1, t2, nl)
			if err != nil {
				return nil, fmt.Errorf("core: time-join: %w", err)
			}
			if nt == nil {
				continue
			}
			if err := out.Insert(nt); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
