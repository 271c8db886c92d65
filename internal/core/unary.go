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
	keyKept := sameKey(rs.Key, r.scheme.Key)
	for _, t := range r.Tuples() {
		if keyKept {
			nv := make(map[string]tfunc.Func, len(attrs))
			for _, a := range attrs {
				nv[a] = t.v[a]
			}
			nt, err := NewTuple(rs, t.l, nv)
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
		for _, a := range attrs {
			joint = joint.Intersect(t.v[a].Domain())
		}
		if joint.IsEmpty() {
			continue
		}
		for _, seg := range constantSegments(t, attrs, joint) {
			nv := make(map[string]tfunc.Func, len(attrs))
			for i, a := range attrs {
				nv[a] = tfunc.Constant(seg.ls, seg.vals[i])
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
// projected attributes, grouping equal combinations.
func constantSegments(t *Tuple, attrs []string, joint lifespan.Lifespan) []segment {
	// Breakpoints: the start of every step of every projected attribute.
	breakSet := make(map[chronon.Time]bool)
	for _, a := range attrs {
		t.v[a].Steps(func(iv chronon.Interval, _ value.Value) bool {
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
			vals := make([]value.Value, len(attrs))
			for i, a := range attrs {
				vals[i], _ = t.At(a, lo)
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

func sameKey(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
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
	lv, ok := t.At(p.Attr, s)
	if !ok {
		return false, nil
	}
	rv := p.Const
	if p.OtherAttr != "" {
		rv, ok = t.At(p.OtherAttr, s)
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
	f := t.Value(p.Attr).Restrict(scope)
	if p.OtherAttr != "" {
		return thetaTimes(f, t.Value(p.OtherAttr).Restrict(scope), p.Theta)
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
	if err := checkPredicate(r.scheme, p); err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		scope := t.l.Intersect(L)
		holds, err := p.when(t, scope)
		if err != nil {
			return nil, fmt.Errorf("core: select-if %s: %w", p, err)
		}
		var keep bool
		if q == Exists {
			keep = !holds.IsEmpty()
		} else {
			// ∀ quantification over an empty scope is vacuously true, in
			// line with bounded quantification Q(s ∈ S).
			keep = scope.Minus(holds).IsEmpty()
		}
		if keep {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
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
	if err := checkPredicate(r.scheme, p); err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		scope := t.l.Intersect(L)
		holds, err := p.when(t, scope)
		if err != nil {
			return nil, fmt.Errorf("core: select-when %s: %w", p, err)
		}
		nt := t.restrict(holds)
		if nt == nil {
			continue
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
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
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		nt := t.restrict(L)
		if nt == nil {
			continue
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
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
	a, ok := r.scheme.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("core: dynamic timeslice: unknown attribute %s", attr)
	}
	if !a.TimeValued() {
		return nil, fmt.Errorf("core: dynamic timeslice: attribute %s is %s-valued, not time-valued",
			attr, a.Domain.Kind)
	}
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		img, err := t.Value(attr).TimeImage()
		if err != nil {
			return nil, fmt.Errorf("core: dynamic timeslice: %w", err)
		}
		nt := t.restrict(img)
		if nt == nil {
			continue
		}
		if err := out.Insert(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// When implements the WHEN operator Ω(r) = LS(r) (Section 4.5): the only
// operator mapping relations to lifespans rather than relations.
// "Intuitively, the WHEN operator returns the set of times over which the
// relation is defined. Used in conjunction with other operators, for
// example SELECT, it provides the answer to when particular conditions
// are satisfied" — and since its result is a lifespan, it can serve as
// the parameter of TIME-SLICE or SELECT.
func When(r *Relation) lifespan.Lifespan { return r.Lifespan() }
