package core

import (
	"fmt"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// concat lays out the tuples of a join scheme rs built by ConcatScheme
// from operand schemes s1 and s2: t1's values keep their positions,
// and the attributes of s2 that s1 lacks follow, read from t2 at tail.
// Positions are resolved once per operator, never per pair.
type concat struct {
	rs   *schema.Scheme
	tail []int
}

func newConcat(rs, s1, s2 *schema.Scheme) concat {
	c := concat{rs: rs, tail: make([]int, 0, len(rs.Attrs)-len(s1.Attrs))}
	for _, a := range rs.Attrs[len(s1.Attrs):] {
		c.tail = append(c.tail, s2.Index(a.Name))
	}
	return c
}

// pair builds the joined tuple over lifespan nl from t1's and t2's
// values — each restricted to nl when restrict is set — with constant
// keys extended to cover their vls in rs. Shared attributes (natural
// join) take t1's value: the definitions guarantee t1 and t2 agree on
// them over nl. Returns nil if nl is empty.
func (c concat) pair(t1, t2 *Tuple, nl lifespan.Lifespan, restrict bool) (*Tuple, error) {
	if nl.IsEmpty() {
		return nil, nil
	}
	nv := append(make([]tfunc.Func, 0, len(c.rs.Attrs)), t1.v...)
	for _, i := range c.tail {
		nv = append(nv, t2.v[i])
	}
	if restrict {
		tfunc.RestrictAll(nv, nl)
	}
	extendKeys(c.rs, nv, nl)
	return NewTuple(c.rs, nl, nv)
}

// Joiner is the per-pair θ-join kernel for operands on s1 and s2, with
// every attribute position resolved once: Pair computes the agreement
// lifespan of t1(A) θ t2(B) and, if non-empty, the concatenated tuple
// on the join scheme. ThetaJoin runs it over every pair; index lookup
// joins run it once per surviving candidate pair.
type Joiner struct {
	c     concat
	a, b  int
	th    value.Theta
	outer bool // ThetaJoinOuter's kernel
}

// NewJoiner returns the θ-join kernel of attrA θ attrB for operands on
// s1 and s2, joined on rs = ConcatScheme(s1, s2).
func NewJoiner(rs, s1, s2 *schema.Scheme, attrA string, th value.Theta, attrB string) Joiner {
	return Joiner{c: newConcat(rs, s1, s2), a: s1.Index(attrA), b: s2.Index(attrB), th: th}
}

// Pair joins t1 (on s1) with t2 (on s2). Returns (nil, nil) when the
// pair does not join.
func (j Joiner) Pair(t1, t2 *Tuple) (*Tuple, error) {
	nl, err := thetaTimes(t1.ValueAt(j.a), t2.ValueAt(j.b), j.th)
	if err != nil || nl.IsEmpty() {
		return nil, err
	}
	if j.outer {
		// Some shared time satisfies θ (SELECT-IF ∃): the pair spans
		// both lifespans, its values unrestricted.
		return j.c.pair(t1, t2, t1.l.Union(t2.l), false)
	}
	return j.c.pair(t1, t2, nl, true)
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
	return thetaJoin(r1, r2, attrA, th, attrB, false)
}

// thetaJoin runs the θ-join kernel over every pair of tuples: the inner
// join, or ThetaJoinOuter's join over the union of the lifespans.
func thetaJoin(r1, r2 *Relation, attrA string, th value.Theta, attrB string, outer bool) (*Relation, error) {
	op := "theta-join"
	if outer {
		op = "outer theta-join"
	}
	rs, err := schema.JoinScheme(r1.scheme, r2.scheme, attrA, attrB)
	if err != nil {
		return nil, err
	}
	j := NewJoiner(rs, r1.scheme, r2.scheme, attrA, th, attrB)
	j.outer = outer
	return joinEach(op, r1, r2, rs, false, j.Pair)
}

// joinEach builds the relation on rs of every tuple pair returns for a
// pair of r1 and r2 tuples (nil when the pair does not join), merging
// results that share a key when merge is set; op names the operator in
// errors.
func joinEach(op string, r1, r2 *Relation, rs *schema.Scheme, merge bool, pair func(t1, t2 *Tuple) (*Tuple, error)) (*Relation, error) {
	out := NewRelation(rs)
	insert := out.Insert
	if merge {
		insert = out.InsertMerging
	}
	ts2 := r2.Tuples()
	for _, t1 := range r1.Tuples() {
		for _, t2 := range ts2 {
			nt, err := pair(t1, t2)
			if err == nil && nt != nil {
				err = insert(nt)
			}
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", op, err)
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
	rs, err := schema.NaturalJoinScheme(r1.scheme, r2.scheme)
	if err != nil {
		return nil, err
	}
	c := newConcat(rs, r1.scheme, r2.scheme)
	// The common attributes' positions in each operand, which need not
	// list them in the same order.
	common := r1.scheme.CommonAttrs(r2.scheme)
	pos := make([][2]int, len(common))
	for i, x := range common {
		pos[i] = [2]int{r1.scheme.Index(x), r2.scheme.Index(x)}
	}
	return joinEach("natural-join", r1, r2, rs, true, func(t1, t2 *Tuple) (*Tuple, error) {
		// Agreement lifespan: times where every common attribute is
		// defined in both and equal.
		nl := t1.l.Intersect(t2.l)
		for _, p := range pos {
			agree, err := thetaTimes(t1.v[p[0]], t2.v[p[1]], value.EQ)
			if err != nil {
				return nil, err
			}
			nl = nl.Intersect(agree)
		}
		return c.pair(t1, t2, nl, true)
	})
}

// TimeJoin implements r1 [@A] r2 (Section 4.6), defined for a time-valued
// attribute A of R1 (DOM(A) ⊆ TT). "Essentially such a JOIN serves as a
// join of dynamic TIME-SLICEs of both relations": each r1 tuple's image
// of t(A) — the set of times its A attribute refers to — slices both the
// r1 tuple and each r2 tuple, and the pair joins over the intersection of
// the sliced lifespans.
func TimeJoin(r1, r2 *Relation, attr string) (*Relation, error) {
	rs, err := schema.TimeJoinScheme(r1.scheme, r2.scheme, attr)
	if err != nil {
		return nil, err
	}
	c, at := newConcat(rs, r1.scheme, r2.scheme), r1.scheme.Index(attr)
	var last *Tuple // the r1 tuple img is the image of
	var img lifespan.Lifespan
	return joinEach("time-join", r1, r2, rs, false, func(t1, t2 *Tuple) (*Tuple, error) {
		if t1 != last {
			var err error
			if img, err = t1.v[at].TimeImage(); err != nil {
				return nil, err
			}
			last = t1
		}
		return c.pair(t1, t2, img.Intersect(t1.l).Intersect(t2.l), true)
	})
}
