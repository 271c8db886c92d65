package schema

import (
	"fmt"
	"sort"

	"repro/internal/lifespan"
	"repro/internal/value"
)

// Attribute describes one attribute of a relation scheme: its name, its
// value domain (the D_i its temporal functions map into, or T for
// time-valued attributes), the lifespan ALS(A,R) over which the schema
// defines it, and the interpolation discipline used to complete
// representation-level values (paper Figure 9; "discrete", "step" or
// "linear" — see tfunc.ByName).
type Attribute struct {
	Name string
	// Domain is the underlying value-domain VD(A). A Domain of kind
	// value.KindTime makes this a time-valued attribute (DOM(A) ⊆ TT),
	// eligible for dynamic TIME-SLICE and TIME-JOIN.
	Domain value.Domain
	// Lifespan is ALS(A,R). The zero lifespan is invalid in a scheme; use
	// lifespan.All() for attributes defined at all times.
	Lifespan lifespan.Lifespan
	// Interp names the interpolation function for the attribute's values
	// ("discrete", "step", "linear"); empty means "discrete".
	Interp string
}

// TimeValued reports whether the attribute draws its values from T, i.e.
// DOM(A) ⊆ TT.
func (a Attribute) TimeValued() bool { return a.Domain.Kind == value.KindTime }

// Scheme is a relation scheme R = ⟨A, K, ALS, DOM⟩. A and the ALS/DOM
// assignments are folded into the ordered Attrs slice; Key lists the
// names in K. Attribute order is definition order and is preserved by
// the algebra so printed relations are stable. A tuple on the scheme
// holds its values in Attrs order, so a position from Index addresses
// the same attribute in every tuple of a relation on the scheme.
type Scheme struct {
	Name  string
	Attrs []Attribute
	Key   []string
	// keyPos holds the positions in Attrs of the names in Key, in Key
	// order, resolved once by New.
	keyPos []int
	// labels holds each attribute's rendered " NAME=" label, escaped
	// for a tuple line: the Text form of attribute i at i, its Wire
	// form at len(Attrs)+i. New builds them, as schemes are immutable.
	labels []string
}

// New validates and returns a scheme. It enforces the paper's structural
// conditions:
//
//  1. attribute names are unique and non-empty;
//  2. K ⊆ A;
//  3. K is non-empty (a relation is a set of tuples distinguished by key
//     values at every pair of times, so a key must exist);
//  4. no attribute lifespan is empty;
//  5. the key attributes' lifespans equal the scheme lifespan — the
//     paper's constraint "the lifespan of the key attributes must be the
//     same as the lifespan of the entire relation schema".
func New(name string, key []string, attrs ...Attribute) (*Scheme, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty scheme name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: scheme %s has no attributes", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: scheme %s has an unnamed attribute", name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("schema: scheme %s: duplicate attribute %s", name, a.Name)
		}
		seen[a.Name] = true
		if a.Lifespan.IsEmpty() {
			return nil, fmt.Errorf("schema: scheme %s: attribute %s has empty lifespan", name, a.Name)
		}
		if a.Interp != "" && a.Interp != "discrete" && a.Interp != "step" && a.Interp != "linear" {
			return nil, fmt.Errorf("schema: scheme %s: attribute %s: unknown interpolation %q", name, a.Name, a.Interp)
		}
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("schema: scheme %s has no key", name)
	}
	for _, k := range key {
		if !seen[k] {
			return nil, fmt.Errorf("schema: scheme %s: key attribute %s not in scheme", name, k)
		}
	}
	s := &Scheme{Name: name, Attrs: attrs, Key: append([]string(nil), key...), keyPos: make([]int, len(key)), labels: labels(attrs)}
	ls := s.Lifespan()
	for i, k := range key {
		s.keyPos[i] = s.Index(k)
		if ka := attrs[s.keyPos[i]]; !ka.Lifespan.Equal(ls) {
			return nil, fmt.Errorf("schema: scheme %s: key attribute %s lifespan %v differs from scheme lifespan %v",
				name, k, ka.Lifespan, ls)
		}
	}
	return s, nil
}

// labels builds a scheme's attribute labels (Scheme.Label) over one
// string: the Text labels of every attribute, then the Wire labels.
func labels(attrs []Attribute) []string {
	size := 0
	for _, a := range attrs {
		size += len(a.Name) + 2
	}
	ends := make([]int, 0, 2*len(attrs))
	b := make([]byte, 0, 2*size)
	for _, f := range []value.Form{value.Text, value.Wire} {
		for _, a := range attrs {
			b = append(f.Escape(append(b, ' '), a.Name), '=')
			ends = append(ends, len(b))
		}
	}
	all := string(b)
	out := make([]string, len(ends))
	start := 0
	for k, end := range ends {
		out[k], start = all[start:end], end
	}
	return out
}

// Label returns attribute i's label in a rendered tuple, " NAME=",
// with the name written through f.Escape.
func (s *Scheme) Label(i int, f value.Form) string {
	if f == value.Wire {
		i += len(s.Attrs)
	}
	return s.labels[i]
}

// MustNew is New that panics on error; for tests and examples.
func MustNew(name string, key []string, attrs ...Attribute) *Scheme {
	s, err := New(name, key, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named attribute in Attrs — its
// value's position in every tuple on the scheme — or -1 if the scheme
// does not define it.
func (s *Scheme) Index(name string) int { return indexAttr(s.Attrs, name) }

// KeyIndex returns the positions in Attrs of the key attributes, in Key
// order. Callers must not modify the slice.
func (s *Scheme) KeyIndex() []int { return s.keyPos }

// SameOrder reports whether o lists the same attribute names as s at
// every position, so a tuple laid out for one is laid out for the other.
func (s *Scheme) SameOrder(o *Scheme) bool {
	if s == o {
		return true
	}
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i].Name != o.Attrs[i].Name {
			return false
		}
	}
	return true
}

// Attr returns the named attribute.
func (s *Scheme) Attr(name string) (Attribute, bool) {
	if i := s.Index(name); i >= 0 {
		return s.Attrs[i], true
	}
	return Attribute{}, false
}

// HasAttr reports whether the scheme defines the named attribute.
func (s *Scheme) HasAttr(name string) bool { return s.Index(name) >= 0 }

// AttrNames returns the attribute names in scheme order.
func (s *Scheme) AttrNames() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// IsKey reports whether the named attribute belongs to K.
func (s *Scheme) IsKey(name string) bool {
	for _, k := range s.Key {
		if k == name {
			return true
		}
	}
	return false
}

// ALS returns the attribute lifespan ALS(A,R). Unknown attributes yield
// the empty lifespan.
func (s *Scheme) ALS(name string) lifespan.Lifespan {
	a, ok := s.Attr(name)
	if !ok {
		return lifespan.Empty()
	}
	return a.Lifespan
}

// Lifespan returns the scheme lifespan: "the lifespan of the relation
// schema [is] the union of the lifespans of all of the attributes in the
// schema" (paper Section 2).
func (s *Scheme) Lifespan() lifespan.Lifespan {
	ls := lifespan.Empty()
	for _, a := range s.Attrs {
		ls = ls.Union(a.Lifespan)
	}
	return ls
}

// SameAttrs reports A1 = A2 with identical domains — the paper's
// union-compatibility ("they have the same attributes, with the same
// domains"). Attribute order is immaterial.
func (s *Scheme) SameAttrs(o *Scheme) bool {
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for _, a := range s.Attrs {
		b, ok := o.Attr(a.Name)
		if !ok || b.Domain != a.Domain {
			return false
		}
	}
	return true
}

// SameKey reports K1 = K2 as sets.
func (s *Scheme) SameKey(o *Scheme) bool {
	if len(s.Key) != len(o.Key) {
		return false
	}
	k1 := append([]string(nil), s.Key...)
	k2 := append([]string(nil), o.Key...)
	sort.Strings(k1)
	sort.Strings(k2)
	for i := range k1 {
		if k1[i] != k2[i] {
			return false
		}
	}
	return true
}

// MergeCompatible reports the paper's merge-compatibility, "stricter than
// union-compatibility, by requiring the same key": A1 = A2, K1 = K2, and
// DOM1 = DOM2.
func (s *Scheme) MergeCompatible(o *Scheme) bool {
	return s.SameAttrs(o) && s.SameKey(o)
}

// DisjointAttrs reports whether the two schemes share no attribute names
// (the precondition of the Cartesian product).
func (s *Scheme) DisjointAttrs(o *Scheme) bool {
	for _, a := range s.Attrs {
		if o.HasAttr(a.Name) {
			return false
		}
	}
	return true
}

// CommonAttrs returns X = A1 ∩ A2 in s's attribute order (used by
// NATURAL-JOIN).
func (s *Scheme) CommonAttrs(o *Scheme) []string {
	var out []string
	for _, a := range s.Attrs {
		if o.HasAttr(a.Name) {
			out = append(out, a.Name)
		}
	}
	return out
}

// combineALS merges the ALS assignments of two schemes using f on
// attributes present in both; attributes present in only one keep their
// lifespan.
func combineALS(a, b *Scheme, f func(x, y lifespan.Lifespan) lifespan.Lifespan) map[string]lifespan.Lifespan {
	out := make(map[string]lifespan.Lifespan, len(a.Attrs)+len(b.Attrs))
	for _, at := range a.Attrs {
		out[at.Name] = at.Lifespan
	}
	for _, bt := range b.Attrs {
		if x, ok := out[bt.Name]; ok {
			out[bt.Name] = f(x, bt.Lifespan)
		} else {
			out[bt.Name] = bt.Lifespan
		}
	}
	return out
}

// UnionScheme builds the result scheme of r1 ∪ r2, or of r1 ∪o r2 when
// merge is set: per the paper, R3 = <A1, K1, ALS1 ∪ ALS2, DOM1>. Each
// operator's result scheme is stated once, here, for core's operators
// and the engine's planner alike.
func UnionScheme(a, b *Scheme, merge bool) (*Scheme, error) {
	return combined(a, b, merge, lifespan.Lifespan.Union)
}

// IntersectScheme builds the result scheme of r1 ∩ r2, or of r1 ∩o r2
// when merge is set: R3 = <A1, K1, ALS1 ∩ ALS2, DOM1>. The intersection
// of the ALS assignments can empty an attribute's lifespan, which the
// paper's structural conditions forbid; that case is an error reported
// to the caller ("the schemas never coexist").
func IntersectScheme(a, b *Scheme, merge bool) (*Scheme, error) {
	return combined(a, b, merge, lifespan.Lifespan.Intersect)
}

// DiffScheme returns the result scheme of r1 − r2, or of r1 −o r2 when
// merge is set: R1.
func DiffScheme(a, b *Scheme, merge bool) (*Scheme, error) {
	return a, compatible(a, b, merge)
}

// compatible checks the set operators' precondition: union-compatible
// operands, merge-compatible ones for the object-based forms.
func compatible(a, b *Scheme, merge bool) error {
	switch {
	case merge && !a.MergeCompatible(b):
		return fmt.Errorf("schema: %s and %s are not merge-compatible", a, b)
	case !a.SameAttrs(b):
		return fmt.Errorf("schema: %s and %s are not union-compatible", a, b)
	}
	return nil
}

// combined builds <A1, K1, f(ALS1, ALS2), DOM1> for compatible a and b.
func combined(a, b *Scheme, merge bool, f func(x, y lifespan.Lifespan) lifespan.Lifespan) (*Scheme, error) {
	if err := compatible(a, b, merge); err != nil {
		return nil, err
	}
	als := combineALS(a, b, f)
	attrs := make([]Attribute, len(a.Attrs))
	for i, at := range a.Attrs {
		at.Lifespan = als[at.Name]
		attrs[i] = at
	}
	return New(a.Name, a.Key, attrs...)
}

// ProductScheme builds the result scheme of the Cartesian product
// r1 × r2, whose operands must share no attribute.
func ProductScheme(a, b *Scheme) (*Scheme, error) {
	if err := disjoint(a, b); err != nil {
		return nil, err
	}
	return ConcatScheme(a, b, a.Name+"x"+b.Name)
}

// JoinScheme builds the result scheme of the θ-join, the equijoin and
// the outer θ-join r1 [A θ B] r2, whose operands share no attribute, A
// an attribute of r1 and B one of r2. How A's and B's values compare
// across domain kinds is left to each pair (value.Theta.Apply).
func JoinScheme(a, b *Scheme, attrA, attrB string) (*Scheme, error) {
	if err := disjoint(a, b); err != nil {
		return nil, err
	}
	if !a.HasAttr(attrA) {
		return nil, fmt.Errorf("schema: join attribute %s not in %s", attrA, a)
	}
	if !b.HasAttr(attrB) {
		return nil, fmt.Errorf("schema: join attribute %s not in %s", attrB, b)
	}
	return ConcatScheme(a, b, a.Name+"⋈"+b.Name)
}

// NaturalJoinScheme builds the result scheme of r1 NATURAL-JOIN r2,
// whose operands must share an attribute.
func NaturalJoinScheme(a, b *Scheme) (*Scheme, error) {
	if len(a.CommonAttrs(b)) == 0 {
		return nil, fmt.Errorf("schema: natural join: %s and %s share no attributes", a, b)
	}
	return ConcatScheme(a, b, a.Name+"⋈"+b.Name)
}

// TimeJoinScheme builds the result scheme of r1 [@A] r2: A is a
// time-valued attribute of r1, and the operands share no attribute.
func TimeJoinScheme(a, b *Scheme, attr string) (*Scheme, error) {
	if _, err := a.TimeIndex(attr); err != nil {
		return nil, err
	}
	if err := disjoint(a, b); err != nil {
		return nil, err
	}
	return ConcatScheme(a, b, a.Name+"⋈"+b.Name)
}

// TimeIndex returns the position of the time-valued attribute name —
// whose image slices a tuple in dynamic TIME-SLICE and TIME-JOIN — or
// an error when s lacks it or it is not time-valued.
func (s *Scheme) TimeIndex(name string) (int, error) {
	i := s.Index(name)
	if i < 0 || !s.Attrs[i].TimeValued() {
		return i, fmt.Errorf("schema: %s has no time-valued attribute %s", s, name)
	}
	return i, nil
}

// disjoint checks the product's and the θ-joins' precondition.
func disjoint(a, b *Scheme) error {
	if !a.DisjointAttrs(b) {
		return fmt.Errorf("schema: %s and %s share attributes; rename first", a, b)
	}
	return nil
}

// ProjectScheme builds the scheme for π_X(r). Every name in x must be a
// scheme attribute. The projection keys on x itself: projection does not
// preserve the original key in general, and the paper's relation
// condition (key-disjointness of tuples) is then enforced with respect
// to all remaining attributes, mirroring duplicate elimination in the
// snapshot model.
func ProjectScheme(s *Scheme, x []string, name string) (*Scheme, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("schema: projection onto no attributes")
	}
	attrs := make([]Attribute, 0, len(x))
	for _, n := range x {
		a, ok := s.Attr(n)
		if !ok {
			return nil, fmt.Errorf("schema: projection attribute %s not in scheme %s", n, s.Name)
		}
		attrs = append(attrs, a)
	}
	// Keep original key attributes that survive the projection; if none
	// survive, key on all projected attributes.
	var key []string
	for _, k := range s.Key {
		for _, n := range x {
			if n == k {
				key = append(key, k)
			}
		}
	}
	if len(key) != len(s.Key) {
		key = append([]string(nil), x...)
	}
	// Key lifespans must equal the new scheme lifespan; widen key
	// attribute lifespans if the projection dropped wider attributes.
	ls := lifespan.Empty()
	for _, a := range attrs {
		ls = ls.Union(a.Lifespan)
	}
	for i := range attrs {
		for _, k := range key {
			if attrs[i].Name == k {
				attrs[i].Lifespan = ls
			}
		}
	}
	return New(name, key, attrs...)
}

// ConcatScheme builds the result scheme of the Cartesian product and the
// joins: "R3 = <A1 ∪ A2, K1 ∪ K2, ALS1 ∪ ALS2, DOM1 ∪ DOM2>". For the
// product and θ-join the attribute sets must be disjoint; NATURAL-JOIN
// passes shared = CommonAttrs, whose lifespans combine by union.
func ConcatScheme(a, b *Scheme, name string) (*Scheme, error) {
	attrs := make([]Attribute, 0, len(a.Attrs)+len(b.Attrs))
	attrs = append(attrs, a.Attrs...)
	for _, bt := range b.Attrs {
		if i := indexAttr(attrs, bt.Name); i >= 0 {
			if attrs[i].Domain != bt.Domain {
				return nil, fmt.Errorf("schema: shared attribute %s has conflicting domains", bt.Name)
			}
			attrs[i].Lifespan = attrs[i].Lifespan.Union(bt.Lifespan)
			continue
		}
		attrs = append(attrs, bt)
	}
	key := append([]string(nil), a.Key...)
	for _, k := range b.Key {
		dup := false
		for _, k1 := range key {
			if k1 == k {
				dup = true
				break
			}
		}
		if !dup {
			key = append(key, k)
		}
	}
	// The combined key lifespans must equal the combined scheme lifespan.
	ls := lifespan.Empty()
	for _, at := range attrs {
		ls = ls.Union(at.Lifespan)
	}
	for i := range attrs {
		for _, k := range key {
			if attrs[i].Name == k {
				attrs[i].Lifespan = ls
			}
		}
	}
	return New(name, key, attrs...)
}

// InOrderOf returns s with its attributes listed in o's attribute
// order, and pos, where pos[i] is the position in s of o's i-th
// attribute: the scheme and permutation that re-lay the tuples of a
// relation on s beside those of one on o. The two schemes must have
// the same attribute names.
func (s *Scheme) InOrderOf(o *Scheme) (*Scheme, []int, error) {
	if len(s.Attrs) != len(o.Attrs) {
		return nil, nil, fmt.Errorf("schema: %s and %s have different attributes", s.Name, o.Name)
	}
	attrs := make([]Attribute, len(o.Attrs))
	pos := make([]int, len(o.Attrs))
	for i, a := range o.Attrs {
		if pos[i] = s.Index(a.Name); pos[i] < 0 {
			return nil, nil, fmt.Errorf("schema: %s has no attribute %s", s.Name, a.Name)
		}
		attrs[i] = s.Attrs[pos[i]]
	}
	ns, err := New(s.Name, s.Key, attrs...)
	return ns, pos, err
}

func indexAttr(attrs []Attribute, name string) int {
	for i, a := range attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Rename returns the scheme of RENAME s AS prefix: a copy named
// "prefix_" + s.Name with every attribute prefixed "prefix.",
// preserving key membership. Used to disambiguate before products and
// θ-joins of relations sharing attribute names.
func (s *Scheme) Rename(prefix string) (*Scheme, error) {
	attrs := make([]Attribute, len(s.Attrs))
	for i, a := range s.Attrs {
		a.Name = prefix + "." + a.Name
		attrs[i] = a
	}
	key := make([]string, len(s.Key))
	for i, k := range s.Key {
		key[i] = prefix + "." + k
	}
	return New(prefix+"_"+s.Name, key, attrs...)
}

// String renders the scheme header; see AppendForm.
func (s *Scheme) String() string { return string(s.AppendForm(nil, value.Text)) }

// AppendForm appends the scheme header to dst in form f, e.g.
// "EMP(NAME* strings {[0,49]}, SAL integers step {[0,49]})", where * marks
// key attributes. Names are written through f.Escape.
func (s *Scheme) AppendForm(dst []byte, f value.Form) []byte {
	dst = append(f.Escape(dst, s.Name), '(')
	for i, a := range s.Attrs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = f.Escape(dst, a.Name)
		if s.IsKey(a.Name) {
			dst = append(dst, '*')
		}
		interp := a.Interp
		if interp == "" {
			interp = "discrete"
		}
		dst = f.Escape(append(f.Escape(append(dst, ' '), a.Domain.Name), ' '), interp)
		dst = a.Lifespan.AppendTo(append(dst, ' '))
	}
	return append(dst, ')')
}
