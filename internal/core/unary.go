package core

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// Project implements π_X(r) (Section 4.2): "removes from r all but a
// specified set of attributes ... It does not change the values of any of
// the remaining attributes."
//
// When X retains the key, each tuple simply loses the dropped attributes.
// When X drops the key, the projection must re-identify objects by the
// remaining values (the historical counterpart of classical duplicate
// elimination): each tuple is decomposed into maximal segments on which
// all projected attributes are constant and defined, and segments with
// equal values — within and across source tuples — merge into one result
// object whose lifespan is the union of the matching times. At every
// time s this yields exactly the classical π_X of the snapshot at s.
func Project(r *Relation, attrs ...string) (*Relation, error) {
	rs, err := schema.ProjectScheme(r.scheme, attrs, r.scheme.Name)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rs)
	keyKept := rs.SameKey(r.scheme)
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = r.scheme.Index(a)
	}
	for _, t := range r.Tuples() {
		if keyKept {
			nt, err := ProjectTuple(rs, t, pos)
			if err != nil {
				return nil, fmt.Errorf("core: project: %w", err)
			}
			if err := out.InsertMerging(nt); err != nil {
				return nil, fmt.Errorf("core: project: %w", err)
			}
			continue
		}
		// Key dropped: duplicate-elimination path. Joint domain = times
		// where every projected attribute is defined (no partial
		// sub-tuples, matching the classical model's lack of nulls).
		joint := t.l
		for _, p := range pos {
			joint = joint.Intersect(t.v[p].Domain())
		}
		if joint.IsEmpty() {
			continue
		}
		for _, seg := range constantSegments(t, pos, joint) {
			nv := make([]tfunc.Func, len(pos))
			for i := range pos {
				nv[i] = tfunc.Constant(seg.ls, seg.vals[i])
			}
			nt, err := NewTuple(rs, seg.ls, nv)
			if err != nil {
				return nil, fmt.Errorf("core: project: %w", err)
			}
			if err := out.InsertMerging(nt); err != nil {
				return nil, fmt.Errorf("core: project: %w", err)
			}
		}
	}
	return out, nil
}

// segment is a maximal run of chronons over which the projected
// attributes hold one combination of values. Segments with the same
// value combination are pre-merged (their lifespans unioned) before
// insertion, so each source tuple contributes each combination once.
type segment struct {
	ls   lifespan.Lifespan
	vals []value.Value
}

// constantSegments partitions joint into value-constant pieces of the
// projected attributes, at positions pos, grouping equal combinations.
func constantSegments(t *Tuple, pos []int, joint lifespan.Lifespan) []segment {
	// Breakpoints: the start of every step of every projected attribute.
	breakSet := make(map[chronon.Time]bool)
	for _, p := range pos {
		t.v[p].Steps(func(iv chronon.Interval, _ value.Value) bool {
			breakSet[iv.Lo] = true
			return true
		})
	}
	var segs []segment
	byKey := make(map[value.Key]int)
	for _, iv := range joint.Intervals() {
		lo := iv.Lo
		for lo <= iv.Hi {
			hi := iv.Hi
			for b := range breakSet {
				if b > lo && b <= hi {
					hi = b - 1
				}
			}
			vals := make([]value.Value, len(pos))
			for i, p := range pos {
				vals[i], _ = t.v[p].At(lo)
			}
			k := value.KeyOf(vals...)
			piece := lifespan.Interval(lo, hi)
			if i, ok := byKey[k]; ok {
				segs[i].ls = segs[i].ls.Union(piece)
			} else {
				byKey[k] = len(segs)
				segs = append(segs, segment{ls: piece, vals: vals})
			}
			lo = hi + 1
		}
	}
	return segs
}

// Quantifier selects between the existential and universal readings of a
// selection criterion over a set of times (Section 4.3: "allowing either
// existential or universal quantification over a set of times").
type Quantifier uint8

const (
	// Exists requires the predicate to hold at some time of L ∩ t.l.
	Exists Quantifier = iota
	// ForAll requires the predicate to hold at every time of L ∩ t.l.
	ForAll
)

// String renders the quantifier symbol.
func (q Quantifier) String() string {
	if q == ForAll {
		return "∀"
	}
	return "∃"
}

// Predicate is the simple selection criterion "A θ a" of Section 4.3:
// attribute Attr stands in relation Theta to the right-hand side, which
// is either a constant (Const) or another attribute (OtherAttr).
type Predicate struct {
	Attr      string
	Theta     value.Theta
	Const     value.Value
	OtherAttr string // non-empty when the RHS is an attribute
	// on is the scheme Bind resolved the positions at (Attr's) and
	// other (OtherAttr's) in; an unbound predicate binds to each
	// tuple's own scheme as it evaluates.
	on        *schema.Scheme
	at, other int
}

// Bind returns p with its attributes' positions in s resolved once, so
// that evaluating it over the tuples of a relation on s reads their
// values by position. Bind(nil) returns p unbound.
func (p Predicate) Bind(s *schema.Scheme) Predicate {
	if s != nil {
		p.on, p.at, p.other = s, s.Index(p.Attr), s.Index(p.OtherAttr)
	}
	return p
}

// operands returns t(Attr) and t(OtherAttr), the latter nowhere-defined
// when the RHS is a constant.
func (p Predicate) operands(t *Tuple) (tfunc.Func, tfunc.Func) {
	if p.on == nil {
		p = p.Bind(t.s)
	}
	return t.ValueAt(p.at), t.ValueAt(p.other)
}

// String renders the predicate, e.g. "SAL=30000" or "MGR=NAME".
func (p Predicate) String() string {
	rhs := p.Const.String()
	if p.OtherAttr != "" {
		rhs = p.OtherAttr
	}
	return fmt.Sprintf("%s%s%s", p.Attr, p.Theta, rhs)
}

// holdsAt evaluates the predicate on tuple t at time s. A predicate over
// an attribute undefined at s is false there (the object has no value to
// satisfy it with).
func (p Predicate) holdsAt(t *Tuple, s chronon.Time) (bool, error) {
	f, g := p.operands(t)
	lv, ok := f.At(s)
	if !ok {
		return false, nil
	}
	rv := p.Const
	if p.OtherAttr != "" {
		rv, ok = g.At(s)
		if !ok {
			return false, nil
		}
	}
	return p.Theta.Apply(lv, rv)
}

// when computes the set of times in scope at which the predicate holds
// for t, stepping through the representation-level pieces rather than
// individual chronons. The steps are sorted, so the satisfying ones
// build the lifespan directly; when every step satisfies and the steps
// cover scope, the answer is scope itself.
func (p Predicate) when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	f, g := p.operands(t)
	// A value's domain lies within t.l, so when scope covers t.l (SELECT
	// without DURING) restricting to it could only return the operand.
	cut := !t.l.SubsetOf(scope)
	if cut {
		f = f.Restrict(scope)
	}
	if p.OtherAttr != "" {
		if cut {
			g = g.Restrict(scope)
		}
		return thetaTimes(f, g, p.Theta)
	}
	// Constant RHS: each step satisfies or fails as a whole. Nothing is
	// built while every step so far satisfies.
	n := f.NumSteps()
	var b lifespan.Builder
	all := true
	for i := range n {
		iv, v := f.StepAt(i)
		ok, err := p.Theta.Apply(v, p.Const)
		if err != nil {
			return lifespan.Empty(), err
		}
		switch {
		case ok && !all:
			b.Add(iv)
		case !ok && all:
			// The first failing step: catch up on the satisfying prefix.
			all = false
			b = lifespan.NewBuilder(n - 1)
			for k := range i {
				siv, _ := f.StepAt(k)
				b.Add(siv)
			}
		}
	}
	if !all {
		return b.Lifespan(), nil
	}
	if f.DomainEqual(scope) {
		return scope, nil
	}
	return f.Domain(), nil
}

// SelectIf implements σ-IF(A θ a, Q, L)(r) (Section 4.3):
//
//	σ-IF(AθA', Q, L)(r) = { t ∈ r | Q(s ∈ (L ∩ t.l)) [t(A)(s) θ a] }
//
// "If the selection criterion is met by a tuple t, then the entire tuple
// t is returned, and its lifespan is unchanged." Pass lifespan.All() for
// L = T (then s ∈ (L ∩ t.l) ≡ s ∈ t.l).
func SelectIf(r *Relation, p Predicate, q Quantifier, L lifespan.Lifespan) (*Relation, error) {
	return SelectIfCond(r, Atom{Pred: p}, q, L)
}

// SelectWhen implements σ-WHEN(A θ a, L)(r) (Section 4.3): "if the
// selection criterion is met by a tuple t at some time in its lifespan,
// what is returned is a new tuple t' whose lifespan is exactly those
// points in time WHEN the criterion is met, and whose value is the same
// as t for those points" — a hybrid reduction in both the value and
// temporal dimensions.
//
// The paper's example: σ-WHEN(NAME=John ∧ SAL=30K)(emp) yields the tuple
// for John restricted to just those times when John earned 30K; compose
// two SelectWhen calls to express the conjunction.
func SelectWhen(r *Relation, p Predicate, L lifespan.Lifespan) (*Relation, error) {
	return SelectWhenCond(r, Atom{Pred: p}, L)
}

func checkPredicate(s *schema.Scheme, p Predicate) error {
	if !s.HasAttr(p.Attr) {
		return fmt.Errorf("core: predicate %s: unknown attribute %s", p, p.Attr)
	}
	if p.OtherAttr != "" {
		if !s.HasAttr(p.OtherAttr) {
			return fmt.Errorf("core: predicate %s: unknown attribute %s", p, p.OtherAttr)
		}
	} else if !p.Const.IsValid() {
		return fmt.Errorf("core: predicate %s: invalid constant", p)
	}
	return nil
}

// TimesliceStatic implements the static TIME-SLICE T_L(r) (Section 4.4):
//
//	T_L(r) = { t | ∃t' ∈ r [l = L ∩ t'.l ∧ t.l = l ∧ t.v = t'.v|l] }
//
// Each tuple is restricted to the externally specified lifespan L; tuples
// whose lifespans miss L entirely vanish.
func TimesliceStatic(r *Relation, L lifespan.Lifespan) (*Relation, error) {
	return restrictEach(r, func(*Tuple) (lifespan.Lifespan, error) { return L, nil })
}

// restrictEach returns r with each tuple t restricted to the lifespan
// at(t), dropping the tuples nothing survives of.
func restrictEach(r *Relation, at func(t *Tuple) (lifespan.Lifespan, error)) (*Relation, error) {
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		l, err := at(t)
		if err != nil {
			return nil, err
		}
		if nt := t.restrict(l); nt != nil {
			if err := out.Insert(nt); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// TimesliceDynamic implements the dynamic TIME-SLICE T@A(r) (Section
// 4.4), defined for time-valued attributes A with DOM(A) ⊆ TT:
//
//	T@A(r) = { t | ∃t' ∈ r [for L, the image of t'(A), t.l = L ∧ t = t'|L] }
//
// "The subset of the lifespan that is selected for each tuple is
// determined by the image of the value of a specified attribute for that
// tuple" — each tuple supplies its own slicing lifespan.
func TimesliceDynamic(r *Relation, attr string) (*Relation, error) {
	at, err := r.scheme.TimeIndex(attr)
	if err != nil {
		return nil, err
	}
	return restrictEach(r, func(t *Tuple) (lifespan.Lifespan, error) {
		img, err := t.v[at].TimeImage()
		if err != nil {
			return img, fmt.Errorf("core: dynamic timeslice: %w", err)
		}
		return img, nil
	})
}

// When implements the WHEN operator Ω(r) = LS(r) (Section 4.5): the only
// operator mapping relations to lifespans rather than relations.
// "Intuitively, the WHEN operator returns the set of times over which the
// relation is defined. Used in conjunction with other operators, for
// example SELECT, it provides the answer to when particular conditions
// are satisfied" — and since its result is a lifespan, it can serve as
// the parameter of TIME-SLICE or SELECT.
func When(r *Relation) lifespan.Lifespan { return r.Lifespan() }
