package rel

import (
	"fmt"

	"repro/internal/value"
)

// Scheme is a classical relation scheme: named attributes with value
// domains, plus a key.
type Scheme struct {
	Name  string
	Attrs []string
	Doms  []value.Domain
	Key   []string
}

// NewScheme validates and builds a scheme.
func NewScheme(name string, key []string, attrs []string, doms []value.Domain) (*Scheme, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("rel: scheme %s has no attributes", name)
	}
	if len(attrs) != len(doms) {
		return nil, fmt.Errorf("rel: scheme %s: %d attributes but %d domains", name, len(attrs), len(doms))
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("rel: scheme %s: empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("rel: scheme %s: duplicate attribute %s", name, a)
		}
		seen[a] = true
	}
	for _, k := range key {
		if !seen[k] {
			return nil, fmt.Errorf("rel: scheme %s: key %s not in scheme", name, k)
		}
	}
	return &Scheme{Name: name, Attrs: append([]string(nil), attrs...),
		Doms: append([]value.Domain(nil), doms...), Key: append([]string(nil), key...)}, nil
}

// Index returns the position of attribute a, or -1.
func (s *Scheme) Index(a string) int {
	for i, n := range s.Attrs {
		if n == a {
			return i
		}
	}
	return -1
}

// Tuple is a classical flat tuple: one atomic value per attribute, in
// scheme order.
type Tuple []value.Value

// key is the canonical duplicate-detection key of the whole tuple
// (classical relations are sets: full-tuple identity). The encoding
// escapes separators so tuples that differ only in where a "|" falls
// inside a string value do not collide.
func (t Tuple) key() value.Key { return value.KeyOf(t...) }

// Relation is a classical relation: a set of tuples on a scheme.
type Relation struct {
	scheme *Scheme
	tuples []Tuple
	index  map[value.Key]bool
}

// NewRelation returns an empty relation on s.
func NewRelation(s *Scheme) *Relation {
	return &Relation{scheme: s, index: make(map[value.Key]bool)}
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// Cardinality returns |r|.
func (r *Relation) Cardinality() int { return len(r.tuples) }

// Tuples returns the tuples in insertion order; callers must not mutate.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Insert adds a tuple; duplicates are silently absorbed (set semantics).
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.scheme.Attrs) {
		return fmt.Errorf("rel: relation %s: tuple arity %d, want %d", r.scheme.Name, len(t), len(r.scheme.Attrs))
	}
	for i, v := range t {
		if !r.scheme.Doms[i].Contains(v) {
			return fmt.Errorf("rel: relation %s: attribute %s: value %s outside domain %s",
				r.scheme.Name, r.scheme.Attrs[i], v, r.scheme.Doms[i].Name)
		}
	}
	k := t.key()
	if r.index[k] {
		return nil
	}
	r.index[k] = true
	r.tuples = append(r.tuples, append(Tuple(nil), t...))
	return nil
}

// MustInsert is Insert that panics on error.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Contains reports membership of an identical tuple.
func (r *Relation) Contains(t Tuple) bool { return r.index[t.key()] }

// Equal reports set equality (schemes must have equal attribute lists).
func (r *Relation) Equal(o *Relation) bool {
	if len(r.tuples) != len(o.tuples) || len(r.scheme.Attrs) != len(o.scheme.Attrs) {
		return false
	}
	for i, a := range r.scheme.Attrs {
		if o.scheme.Attrs[i] != a {
			return false
		}
	}
	for _, t := range r.tuples {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}

// String renders the relation; see AppendForm.
func (r *Relation) String() string { return string(r.AppendForm(nil, value.Text)) }

// AppendForm appends the relation's rendering to dst in form f: a
// header row, then one row per tuple in canonical order — ascending by
// the tuple's key, compared bytewise. Each key is encoded once, before
// the sort (value.SortByKey).
func (r *Relation) AppendForm(dst []byte, f value.Form) []byte {
	dst = append(f.Escape(dst, r.scheme.Name), '(')
	for i, a := range r.scheme.Attrs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = f.Escape(dst, a)
	}
	dst = append(dst, ')')

	order, _ := value.SortByKey(len(r.tuples), func(key []byte, i int) []byte {
		for j, v := range r.tuples[i] {
			key = value.AppendKeyPart(key, j, v)
		}
		return key
	})
	for _, i := range order {
		dst = append(f.Newline(dst), "  ("...)
		for j, v := range r.tuples[i] {
			if j > 0 {
				dst = append(dst, ", "...)
			}
			dst = v.AppendForm(dst, f)
		}
		dst = append(dst, ')')
	}
	return dst
}

// Union returns r ∪ o for union-compatible relations.
func Union(r, o *Relation) (*Relation, error) {
	if err := compatible(r, o); err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.tuples {
		out.MustInsert(t)
	}
	for _, t := range o.tuples {
		out.MustInsert(t)
	}
	return out, nil
}

// Intersect returns r ∩ o.
func Intersect(r, o *Relation) (*Relation, error) {
	if err := compatible(r, o); err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.tuples {
		if o.Contains(t) {
			out.MustInsert(t)
		}
	}
	return out, nil
}

// Diff returns r − o.
func Diff(r, o *Relation) (*Relation, error) {
	if err := compatible(r, o); err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.tuples {
		if !o.Contains(t) {
			out.MustInsert(t)
		}
	}
	return out, nil
}

func compatible(r, o *Relation) error {
	if len(r.scheme.Attrs) != len(o.scheme.Attrs) {
		return fmt.Errorf("rel: %s and %s are not union-compatible", r.scheme.Name, o.scheme.Name)
	}
	for i, a := range r.scheme.Attrs {
		if o.scheme.Attrs[i] != a || o.scheme.Doms[i] != r.scheme.Doms[i] {
			return fmt.Errorf("rel: %s and %s are not union-compatible", r.scheme.Name, o.scheme.Name)
		}
	}
	return nil
}

// Project returns π_X(r) with duplicate elimination.
func Project(r *Relation, attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	doms := make([]value.Domain, len(attrs))
	for i, a := range attrs {
		j := r.scheme.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("rel: project: unknown attribute %s", a)
		}
		idx[i] = j
		doms[i] = r.scheme.Doms[j]
	}
	s, err := NewScheme(r.scheme.Name, nil, attrs, doms)
	if err != nil {
		return nil, err
	}
	out := NewRelation(s)
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		out.MustInsert(nt)
	}
	return out, nil
}

// Select returns σ_{A θ a}(r) (constant RHS) or σ_{A θ B} (attribute RHS
// when otherAttr is non-empty).
func Select(r *Relation, attr string, th value.Theta, constant value.Value, otherAttr string) (*Relation, error) {
	i := r.scheme.Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("rel: select: unknown attribute %s", attr)
	}
	j := -1
	if otherAttr != "" {
		j = r.scheme.Index(otherAttr)
		if j < 0 {
			return nil, fmt.Errorf("rel: select: unknown attribute %s", otherAttr)
		}
	}
	out := NewRelation(r.scheme)
	for _, t := range r.tuples {
		rhs := constant
		if j >= 0 {
			rhs = t[j]
		}
		ok, err := th.Apply(t[i], rhs)
		if err != nil {
			return nil, fmt.Errorf("rel: select: %w", err)
		}
		if ok {
			out.MustInsert(t)
		}
	}
	return out, nil
}

// Product returns r × o for attribute-disjoint schemes.
func Product(r, o *Relation) (*Relation, error) {
	for _, a := range o.scheme.Attrs {
		if r.scheme.Index(a) >= 0 {
			return nil, fmt.Errorf("rel: product: shared attribute %s", a)
		}
	}
	attrs := append(append([]string(nil), r.scheme.Attrs...), o.scheme.Attrs...)
	doms := append(append([]value.Domain(nil), r.scheme.Doms...), o.scheme.Doms...)
	s, err := NewScheme(r.scheme.Name+"x"+o.scheme.Name, nil, attrs, doms)
	if err != nil {
		return nil, err
	}
	out := NewRelation(s)
	for _, t1 := range r.tuples {
		for _, t2 := range o.tuples {
			out.MustInsert(append(append(Tuple(nil), t1...), t2...))
		}
	}
	return out, nil
}

// ThetaJoin returns r ⋈_{AθB} o, defined as σ_{AθB}(r × o).
func ThetaJoin(r, o *Relation, attrA string, th value.Theta, attrB string) (*Relation, error) {
	p, err := Product(r, o)
	if err != nil {
		return nil, err
	}
	return Select(p, attrA, th, value.Value{}, attrB)
}

// NaturalJoin returns r ⋈ o over the shared attributes.
func NaturalJoin(r, o *Relation) (*Relation, error) {
	var shared []string
	for _, a := range r.scheme.Attrs {
		if o.scheme.Index(a) >= 0 {
			shared = append(shared, a)
		}
	}
	if len(shared) == 0 {
		return nil, fmt.Errorf("rel: natural-join: no shared attributes")
	}
	// Result: r's attributes followed by o's non-shared attributes.
	var attrs []string
	var doms []value.Domain
	attrs = append(attrs, r.scheme.Attrs...)
	doms = append(doms, r.scheme.Doms...)
	var oKeep []int
	for i, a := range o.scheme.Attrs {
		if r.scheme.Index(a) < 0 {
			attrs = append(attrs, a)
			doms = append(doms, o.scheme.Doms[i])
			oKeep = append(oKeep, i)
		}
	}
	s, err := NewScheme(r.scheme.Name+"⋈"+o.scheme.Name, nil, attrs, doms)
	if err != nil {
		return nil, err
	}
	out := NewRelation(s)
	for _, t1 := range r.tuples {
		for _, t2 := range o.tuples {
			match := true
			for _, a := range shared {
				if !t1[r.scheme.Index(a)].Equal(t2[o.scheme.Index(a)]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			nt := append(Tuple(nil), t1...)
			for _, i := range oKeep {
				nt = append(nt, t2[i])
			}
			out.MustInsert(nt)
		}
	}
	return out, nil
}
