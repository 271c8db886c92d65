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

// Tuple is a historical tuple t = ⟨v, l⟩ on some scheme. Tuples are
// immutable once built; the algebra derives new tuples rather than
// mutating. Construct with TupleBuilder or NewTuple so the paper's
// structural conditions hold by construction.
type Tuple struct {
	l lifespan.Lifespan
	v map[string]tfunc.Func
}

// Lifespan returns t.l, "the periods of time during which the tuple
// bears information".
func (t *Tuple) Lifespan() lifespan.Lifespan { return t.l }

// Value returns t(A), the temporal function that is the tuple's value
// for attribute A. Unknown attributes yield the nowhere-defined function.
func (t *Tuple) Value(attr string) tfunc.Func { return t.v[attr] }

// At returns t(A)(s), the value of attribute A at time s; the boolean is
// false where the function is undefined ("the attribute is not relevant
// at such times, and thus does not exist").
func (t *Tuple) At(attr string, s chronon.Time) (value.Value, bool) {
	return t.v[attr].At(s)
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
// per-attribute temporal functions. It enforces the paper's conditions:
//
//  1. every scheme attribute has an entry in vals (possibly the
//     nowhere-defined function, for attributes whose vls is empty);
//  2. no extraneous attributes;
//  3. each value's kind matches VD(A);
//  4. each value's domain ⊆ t.l ∩ ALS(A,R) = vls(t,A,R);
//  5. key attribute values are constant functions (DOM(Ai) ∈ CD) defined
//     on all of vls — a key that is absent or varies cannot identify the
//     object across its lifespan.
func NewTuple(r *schema.Scheme, ls lifespan.Lifespan, vals map[string]tfunc.Func) (*Tuple, error) {
	if ls.IsEmpty() {
		return nil, fmt.Errorf("core: tuple on %s with empty lifespan", r.Name)
	}
	for name := range vals {
		if !r.HasAttr(name) {
			return nil, fmt.Errorf("core: tuple on %s: unknown attribute %s", r.Name, name)
		}
	}
	// Every check below runs without allocating: vls is usually ls or
	// the attribute lifespan itself, and the domain tests walk steps.
	t := &Tuple{l: ls, v: make(map[string]tfunc.Func, len(r.Attrs))}
	for _, a := range r.Attrs {
		f := vals[a.Name]
		vls := ls.Intersect(a.Lifespan)
		if !f.DomainSubsetOf(vls) {
			return nil, fmt.Errorf("core: tuple on %s: value of %s defined on %v outside vls %v",
				r.Name, a.Name, f.Domain(), vls)
		}
		for i := range f.NumSteps() {
			if _, v := f.StepAt(i); !a.Domain.Contains(v) {
				return nil, fmt.Errorf("core: tuple on %s: value of %s outside domain %s",
					r.Name, a.Name, a.Domain.Name)
			}
		}
		if r.IsKey(a.Name) {
			if !f.IsConstant() || f.IsNowhereDefined() {
				return nil, fmt.Errorf("core: tuple on %s: key attribute %s must be a constant-valued function", r.Name, a.Name)
			}
			if !f.DomainEqual(vls) {
				return nil, fmt.Errorf("core: tuple on %s: key attribute %s must be defined on all of vls %v, got %v",
					r.Name, a.Name, vls, f.Domain())
			}
		}
		t.v[a.Name] = f
	}
	return t, nil
}

// KeyValue returns the tuple's (constant) value for key attribute k.
func (t *Tuple) KeyValue(k string) value.Value {
	v, ok := t.v[k].ConstantValue()
	if !ok {
		return value.Value{}
	}
	return v
}

// key returns the tuple's key values, in the scheme's key order, as the
// value.Key relations index by.
func (t *Tuple) key(r *schema.Scheme) value.Key {
	var buf [4]value.Value
	vs := buf[:0]
	for _, k := range r.Key {
		vs = append(vs, t.KeyValue(k))
	}
	return value.KeyOf(vs...)
}

// appendKey appends the bytes of the tuple's key to dst, for sorting
// many keys in one buffer.
func (t *Tuple) appendKey(dst []byte, r *schema.Scheme) []byte {
	for i, k := range r.Key {
		dst = value.AppendKeyPart(dst, i, t.KeyValue(k))
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
	nv := make(map[string]tfunc.Func, len(t.v))
	for a, f := range t.v {
		nv[a] = f.Restrict(nl)
	}
	return &Tuple{l: nl, v: nv}
}

// Equal reports structural equality of two tuples: same lifespan and
// extensionally equal value functions per attribute.
func (t *Tuple) Equal(o *Tuple) bool {
	if !t.l.Equal(o.l) || len(t.v) != len(o.v) {
		return false
	}
	for a, f := range t.v {
		g, ok := o.v[a]
		if !ok || !f.Equal(g) {
			return false
		}
	}
	return true
}

// Mergable implements the paper's mergability test for tuples t1, t2 on
// merge-compatible schemes:
//
//  2. ∀s ∈ t1.l ∀s' ∈ t2.l  t1.v(K1)(s) = t2.v(K2)(s')  (same key value)
//  3. ∀A ∈ A1 ∀s ∈ (t1.l ∩ t2.l)  t1.v(A)(s) = t2.v(A)(s)  (no contradiction)
//
// Key constancy reduces condition 2 to comparing the constant key values.
func (t *Tuple) Mergable(o *Tuple, r *schema.Scheme) bool {
	for _, k := range r.Key {
		if !t.KeyValue(k).Equal(o.KeyValue(k)) {
			return false
		}
	}
	shared := t.l.Intersect(o.l)
	if shared.IsEmpty() {
		return true
	}
	for _, a := range r.Attrs {
		if !t.v[a.Name].Restrict(shared).Equal(o.v[a.Name].Restrict(shared)) {
			return false
		}
	}
	return true
}

// Merge computes t1 + t2: "(t1+t2).l = t1.l ∪ t2.l and (t1+t2).v(A) =
// t1.v(A) ∪ t2.v(A) for all A ∈ A1". Callers must have established
// mergability; Merge returns an error on contradiction as a safeguard.
func (t *Tuple) Merge(o *Tuple) (*Tuple, error) {
	nl := t.l.Union(o.l)
	nv := make(map[string]tfunc.Func, len(t.v))
	for a, f := range t.v {
		m, err := f.Merge(o.v[a])
		if err != nil {
			return nil, fmt.Errorf("core: merge of attribute %s: %w", a, err)
		}
		nv[a] = m
	}
	return &Tuple{l: nl, v: nv}, nil
}

// String renders the tuple's lifespan and values in attribute-name
// order, e.g.
// "⟨ls={[0,9]} DEPT=<{[0,9]},\"Toys\"> NAME=<{[0,9]},\"John\"> SAL={[0,4]→30000, [5,9]→34000}⟩".
func (t *Tuple) String() string { return string(t.appendByName(nil, value.Text)) }

// appendByName appends the tuple in form f with its values in
// attribute-name order.
func (t *Tuple) appendByName(dst []byte, f value.Form) []byte {
	attrs := make([]schema.Attribute, 0, len(t.v))
	for a := range t.v {
		attrs = append(attrs, schema.Attribute{Name: a})
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	return t.appendTo(dst, attrs, f)
}

// appendTo appends the tuple's lifespan and the values of attrs, in the
// order given, to dst in form f.
func (t *Tuple) appendTo(dst []byte, attrs []schema.Attribute, f value.Form) []byte {
	dst = append(dst, "⟨ls="...)
	dst = t.l.AppendTo(dst)
	for i := range attrs {
		a := attrs[i].Name
		dst = append(f.Escape(append(dst, ' '), a), '=')
		dst = t.v[a].AppendForm(dst, f)
	}
	return append(dst, "⟩"...)
}

// TupleBuilder assembles a tuple attribute by attribute. It is the
// ergonomic construction path used by examples, generators and tests.
type TupleBuilder struct {
	r    *schema.Scheme
	ls   lifespan.Lifespan
	vals map[string]*tfunc.Builder
	errs []error
}

// NewTupleBuilder starts a tuple on scheme r with lifespan ls.
func NewTupleBuilder(r *schema.Scheme, ls lifespan.Lifespan) *TupleBuilder {
	return &TupleBuilder{r: r, ls: ls, vals: make(map[string]*tfunc.Builder)}
}

// Key sets a key attribute to the constant v over the whole vls of the
// attribute (key values must cover the tuple's lifespan).
func (b *TupleBuilder) Key(attr string, v value.Value) *TupleBuilder {
	a, ok := b.r.Attr(attr)
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("core: unknown attribute %s", attr))
		return b
	}
	vls := b.ls.Intersect(a.Lifespan)
	fb := b.builderFor(attr)
	for _, iv := range vls.Intervals() {
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

func (b *TupleBuilder) builderFor(attr string) *tfunc.Builder {
	fb, ok := b.vals[attr]
	if !ok {
		fb = &tfunc.Builder{}
		b.vals[attr] = fb
	}
	return fb
}

// Build validates and returns the tuple.
func (b *TupleBuilder) Build() (*Tuple, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	vals := make(map[string]tfunc.Func, len(b.vals))
	for a, fb := range b.vals {
		vals[a] = fb.Build()
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
