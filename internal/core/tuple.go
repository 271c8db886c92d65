package core

import (
	"fmt"
	"sort"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// Tuple is a historical tuple t = ⟨v, l⟩ on some scheme. t.v is held
// positionally: v[i] is the temporal function of the scheme's i-th
// attribute, and s is the scheme that names the positions. Tuples are
// immutable once built; the algebra derives new tuples rather than
// mutating, and a derived tuple may share its value slice with its
// source (Rename). Construct with TupleBuilder or NewTuple so the
// paper's structural conditions hold by construction.
type Tuple struct {
	l lifespan.Lifespan
	s *schema.Scheme
	v []tfunc.Func
}

// Lifespan returns t.l, "the periods of time during which the tuple
// bears information".
func (t *Tuple) Lifespan() lifespan.Lifespan { return t.l }

// Value returns t(A), the temporal function that is the tuple's value
// for attribute A. Unknown attributes yield the nowhere-defined function.
func (t *Tuple) Value(attr string) tfunc.Func { return t.ValueAt(t.s.Index(attr)) }

// ValueAt returns the value at position i of the tuple's scheme order —
// the by-position form of Value, for callers that resolve an
// attribute's position once per scheme (schema.Scheme.Index). A
// negative i yields the nowhere-defined function.
func (t *Tuple) ValueAt(i int) tfunc.Func {
	if i < 0 {
		return tfunc.Func{}
	}
	return t.v[i]
}

// At returns t(A)(s), the value of attribute A at time s; the boolean is
// false where the function is undefined ("the attribute is not relevant
// at such times, and thus does not exist").
func (t *Tuple) At(attr string, s chronon.Time) (value.Value, bool) {
	return t.Value(attr).At(s)
}

// VLS computes vls(t,A,R) = t.l ∩ ALS(A,R): "the set of times over which
// the value is defined" (Section 3).
func (t *Tuple) VLS(r *schema.Scheme, attr string) lifespan.Lifespan {
	return t.l.Intersect(r.ALS(attr))
}

// VLSSet extends vls to a set of attributes X = {A1,...,An}: the paper
// defines vls(t,X,R) as the intersection over all attributes in X, the
// times at which the whole sub-tuple t(X) is defined.
func (t *Tuple) VLSSet(r *schema.Scheme, attrs []string) lifespan.Lifespan {
	ls := t.l
	for _, a := range attrs {
		ls = ls.Intersect(r.ALS(a))
	}
	return ls
}

// NewTuple validates and builds a tuple on scheme r from a lifespan and
// one temporal function per attribute of r, in r's attribute order
// (vals[i] is the value of r.Attrs[i]; the zero Func is the
// nowhere-defined function). The tuple adopts vals: the caller must not
// modify it afterwards. It enforces the paper's conditions:
//
//  1. every scheme attribute has exactly one value (possibly the
//     nowhere-defined function, for attributes whose vls is empty);
//  2. each value's kind matches VD(A);
//  3. each value's domain ⊆ t.l ∩ ALS(A,R) = vls(t,A,R);
//  4. key attribute values are constant functions (DOM(Ai) ∈ CD) defined
//     on all of vls — a key that is absent or varies cannot identify the
//     object across its lifespan.
func NewTuple(r *schema.Scheme, ls lifespan.Lifespan, vals []tfunc.Func) (*Tuple, error) {
	if err := checkTuple(r, ls, vals); err != nil {
		return nil, err
	}
	return &Tuple{l: ls, s: r, v: vals}, nil
}

// checkTuple enforces NewTuple's conditions.
func checkTuple(r *schema.Scheme, ls lifespan.Lifespan, vals []tfunc.Func) error {
	if ls.IsEmpty() {
		return fmt.Errorf("core: tuple on %s with empty lifespan", r.Name)
	}
	if len(vals) != len(r.Attrs) {
		return fmt.Errorf("core: tuple on %s: %d values for %d attributes", r.Name, len(vals), len(r.Attrs))
	}
	// Every check below runs without allocating: vls is usually ls or
	// the attribute lifespan itself, and the domain tests walk steps.
	for i, a := range r.Attrs {
		f := vals[i]
		if !f.DomainSubsetOf(ls.Intersect(a.Lifespan)) {
			return fmt.Errorf("core: tuple on %s: value of %s defined on %v outside vls %v",
				r.Name, a.Name, f.Domain(), ls.Intersect(a.Lifespan))
		}
		for j := range f.NumSteps() {
			if _, v := f.StepAt(j); !a.Domain.Contains(v) {
				return fmt.Errorf("core: tuple on %s: value of %s outside domain %s",
					r.Name, a.Name, a.Domain.Name)
			}
		}
	}
	for _, i := range r.KeyIndex() {
		f, a := vals[i], r.Attrs[i]
		if !f.IsConstant() || f.IsNowhereDefined() {
			return fmt.Errorf("core: tuple on %s: key attribute %s must be a constant-valued function", r.Name, a.Name)
		}
		if vls := ls.Intersect(a.Lifespan); !f.DomainEqual(vls) {
			return fmt.Errorf("core: tuple on %s: key attribute %s must be defined on all of vls %v, got %v",
				r.Name, a.Name, vls, f.Domain())
		}
	}
	return nil
}

// TupleSlab builds many tuples whose headers share a few chunks of
// storage, for a decoder that builds thousands at once: one allocation
// per chunk instead of one per tuple. Chunks grow geometrically from a
// constant, never from a count the caller supplies. A tuple keeps its
// whole chunk reachable, so a TupleSlab suits tuples that live and die
// together, such as a loaded relation's. The zero TupleSlab is ready to
// use.
type TupleSlab struct {
	buf []Tuple
}

// Tuple slab chunk sizes: the first chunk holds tupleSlabMin tuples,
// each later one twice its predecessor up to tupleSlabMax.
const (
	tupleSlabMin = 64
	tupleSlabMax = 1024
)

// New is NewTuple with the tuple cut from the slab.
func (s *TupleSlab) New(r *schema.Scheme, ls lifespan.Lifespan, vals []tfunc.Func) (*Tuple, error) {
	if err := checkTuple(r, ls, vals); err != nil {
		return nil, err
	}
	if len(s.buf) == cap(s.buf) {
		s.buf = make([]Tuple, 0, min(max(2*cap(s.buf), tupleSlabMin), tupleSlabMax))
	}
	s.buf = append(s.buf, Tuple{l: ls, s: r, v: vals})
	return &s.buf[len(s.buf)-1], nil
}

// KeyValue returns the tuple's (constant) value for key attribute k.
func (t *Tuple) KeyValue(k string) value.Value { return t.keyAt(t.s.Index(k)) }

// keyAt returns the constant value at position i.
func (t *Tuple) keyAt(i int) value.Value {
	v, _ := t.ValueAt(i).ConstantValue()
	return v
}

// key returns the tuple's key values, in the scheme's key order, as the
// value.Key relations index by. t must be laid out in r's order.
func (t *Tuple) key(r *schema.Scheme) value.Key {
	var buf [4]value.Value
	vs := buf[:0]
	for _, i := range r.KeyIndex() {
		vs = append(vs, t.keyAt(i))
	}
	return value.KeyOf(vs...)
}

// appendKey appends the bytes of the tuple's key to dst, for sorting
// many keys in one buffer.
func (t *Tuple) appendKey(dst []byte, r *schema.Scheme) []byte {
	for n, i := range r.KeyIndex() {
		dst = value.AppendKeyPart(dst, n, t.keyAt(i))
	}
	return dst
}

// restrict returns t|L: the tuple with lifespan t.l ∩ L and every value
// restricted accordingly. Returns nil when the restricted lifespan is
// empty (no tuple survives), and t itself when L covers t.l.
func (t *Tuple) restrict(l lifespan.Lifespan) *Tuple {
	if t.l.SubsetOf(l) {
		return t
	}
	nl := t.l.Intersect(l)
	if nl.IsEmpty() {
		return nil
	}
	nv := append([]tfunc.Func(nil), t.v...)
	tfunc.RestrictAll(nv, nl)
	return &Tuple{l: nl, s: t.s, v: nv}
}

// Equal reports structural equality of two tuples: same lifespan and
// extensionally equal value functions per attribute, matched by name
// when the two schemes order their attributes differently.
func (t *Tuple) Equal(o *Tuple) bool {
	if !t.l.Equal(o.l) || len(t.v) != len(o.v) {
		return false
	}
	same := t.s.SameOrder(o.s)
	for i, f := range t.v {
		j := i
		if !same {
			if j = o.s.Index(t.s.Attrs[i].Name); j < 0 {
				return false
			}
		}
		if !f.Equal(o.v[j]) {
			return false
		}
	}
	return true
}

// Mergable implements the paper's mergability test for tuples t1, t2 on
// merge-compatible schemes, both laid out in r's attribute order:
//
//  2. ∀s ∈ t1.l ∀s' ∈ t2.l  t1.v(K1)(s) = t2.v(K2)(s')  (same key value)
//  3. ∀A ∈ A1 ∀s ∈ (t1.l ∩ t2.l)  t1.v(A)(s) = t2.v(A)(s)  (no contradiction)
//
// Key constancy reduces condition 2 to comparing the constant key values.
func (t *Tuple) Mergable(o *Tuple, r *schema.Scheme) bool {
	for _, i := range r.KeyIndex() {
		if !t.keyAt(i).Equal(o.keyAt(i)) {
			return false
		}
	}
	shared := t.l.Intersect(o.l)
	if shared.IsEmpty() {
		return true
	}
	for i, f := range t.v {
		if !f.Restrict(shared).Equal(o.v[i].Restrict(shared)) {
			return false
		}
	}
	return true
}

// Merge computes t1 + t2: "(t1+t2).l = t1.l ∪ t2.l and (t1+t2).v(A) =
// t1.v(A) ∪ t2.v(A) for all A ∈ A1". Both tuples must be laid out in the
// same attribute order, and callers must have established mergability;
// Merge returns an error on contradiction as a safeguard.
func (t *Tuple) Merge(o *Tuple) (*Tuple, error) {
	if !t.s.SameOrder(o.s) {
		return nil, fmt.Errorf("core: merge: %s and %s order their attributes differently", t.s.Name, o.s.Name)
	}
	nv := make([]tfunc.Func, len(t.v))
	for i, f := range t.v {
		m, err := f.Merge(o.v[i])
		if err != nil {
			return nil, fmt.Errorf("core: merge of attribute %s: %w", t.s.Attrs[i].Name, err)
		}
		nv[i] = m
	}
	return &Tuple{l: t.l.Union(o.l), s: t.s, v: nv}, nil
}

// String renders the tuple's lifespan and values in attribute-name
// order, e.g.
// "⟨ls={[0,9]} DEPT=<{[0,9]},\"Toys\"> NAME=<{[0,9]},\"John\"> SAL={[0,4]→30000, [5,9]→34000}⟩".
func (t *Tuple) String() string { return string(t.appendByName(nil, value.Text)) }

// appendByName appends the tuple in form f with its values in
// attribute-name order.
func (t *Tuple) appendByName(dst []byte, f value.Form) []byte {
	pos := make([]int, len(t.v))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(i, j int) bool { return t.s.Attrs[pos[i]].Name < t.s.Attrs[pos[j]].Name })
	return t.appendTo(dst, pos, f)
}

// appendTo appends the tuple's lifespan and its values, named by its
// scheme's labels, to dst in form f: in the order of the positions pos,
// or in scheme order when pos is nil. The lifespan is written once: a
// value constant over exactly t.l — every key, and most values — is
// rendered as tfunc.Func.AppendForm would, <lifespan,value>, with the
// lifespan's bytes copied from the ls= field.
func (t *Tuple) appendTo(dst []byte, pos []int, f value.Form) []byte {
	dst = append(dst, "⟨ls="...)
	lo := len(dst)
	dst = t.l.AppendTo(dst)
	hi := len(dst)
	for i := range t.v {
		if pos != nil {
			i = pos[i]
		}
		dst = append(dst, t.s.Label(i, f)...)
		fn := t.v[i]
		if !fn.IsConstant() || !fn.DomainEqual(t.l) {
			dst = fn.AppendForm(dst, f)
			continue
		}
		v, _ := fn.ConstantValue()
		dst = append(append(dst, '<'), dst[lo:hi]...)
		dst = append(v.AppendForm(append(dst, ','), f), '>')
	}
	return append(dst, "⟩"...)
}

// TupleBuilder assembles a tuple attribute by attribute, by name. It
// is the ergonomic construction path used by examples, generators,
// tests and the text format's parser.
type TupleBuilder struct {
	r    *schema.Scheme
	ls   lifespan.Lifespan
	vals []tfunc.Builder // one per attribute, in scheme order
	errs []error
}

// NewTupleBuilder starts a tuple on scheme r with lifespan ls.
func NewTupleBuilder(r *schema.Scheme, ls lifespan.Lifespan) *TupleBuilder {
	return &TupleBuilder{r: r, ls: ls, vals: make([]tfunc.Builder, len(r.Attrs))}
}

// Key sets a key attribute to the constant v over the whole vls of the
// attribute (key values must cover the tuple's lifespan).
func (b *TupleBuilder) Key(attr string, v value.Value) *TupleBuilder {
	fb := b.builderFor(attr)
	for _, iv := range b.ls.Intersect(b.r.ALS(attr)).Intervals() {
		fb.Set(iv.Lo, iv.Hi, v)
	}
	return b
}

// Set assigns attr = v over [lo,hi] (clipped to vls at Build time the
// hard way: out-of-vls assignments surface as construction errors, per
// the paper's structural conditions).
func (b *TupleBuilder) Set(attr string, lo, hi chronon.Time, v value.Value) *TupleBuilder {
	b.builderFor(attr).Set(lo, hi, v)
	return b
}

// SetAt assigns attr = v at the single chronon s.
func (b *TupleBuilder) SetAt(attr string, s chronon.Time, v value.Value) *TupleBuilder {
	return b.Set(attr, s, s, v)
}

// SetConst assigns attr = v over the attribute's entire vls.
func (b *TupleBuilder) SetConst(attr string, v value.Value) *TupleBuilder {
	return b.Key(attr, v) // same mechanics; key-ness checked at Build
}

// builderFor returns the value builder of attr, recording an error (and
// returning a builder nothing reads) when the scheme lacks attr.
func (b *TupleBuilder) builderFor(attr string) *tfunc.Builder {
	i := b.r.Index(attr)
	if i < 0 {
		b.errs = append(b.errs, fmt.Errorf("core: tuple on %s: unknown attribute %s", b.r.Name, attr))
		return new(tfunc.Builder)
	}
	return &b.vals[i]
}

// Build validates and returns the tuple.
func (b *TupleBuilder) Build() (*Tuple, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	vals := make([]tfunc.Func, len(b.vals))
	for i := range b.vals {
		vals[i] = b.vals[i].Build()
	}
	return NewTuple(b.r, b.ls, vals)
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *TupleBuilder) MustBuild() *Tuple {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
