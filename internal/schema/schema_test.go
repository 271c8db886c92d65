package schema

import (
	"strings"
	"testing"

	"repro/internal/lifespan"
	"repro/internal/value"
)

func ls(s string) lifespan.Lifespan { return lifespan.MustParse(s) }

func empScheme(t *testing.T) *Scheme {
	t.Helper()
	s, err := New("EMP", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "SAL", Domain: value.Ints, Lifespan: ls("{[0,49]}"), Interp: "step"},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[0,49]}"), Interp: "step"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	full := ls("{[0,9]}")
	okAttr := Attribute{Name: "K", Domain: value.Strings, Lifespan: full}
	cases := []struct {
		name  string
		mk    func() (*Scheme, error)
		subst string
	}{
		{"empty name", func() (*Scheme, error) {
			return New("", []string{"K"}, okAttr)
		}, "empty scheme name"},
		{"no attrs", func() (*Scheme, error) {
			return New("R", []string{"K"})
		}, "no attributes"},
		{"unnamed attr", func() (*Scheme, error) {
			return New("R", []string{"K"}, okAttr, Attribute{Domain: value.Ints, Lifespan: full})
		}, "unnamed attribute"},
		{"dup attr", func() (*Scheme, error) {
			return New("R", []string{"K"}, okAttr, okAttr)
		}, "duplicate attribute"},
		{"empty lifespan", func() (*Scheme, error) {
			return New("R", []string{"K"}, okAttr, Attribute{Name: "A", Domain: value.Ints})
		}, "empty lifespan"},
		{"no key", func() (*Scheme, error) {
			return New("R", nil, okAttr)
		}, "no key"},
		{"key not in scheme", func() (*Scheme, error) {
			return New("R", []string{"Z"}, okAttr)
		}, "not in scheme"},
		{"bad interp", func() (*Scheme, error) {
			return New("R", []string{"K"}, Attribute{Name: "K", Domain: value.Strings, Lifespan: full, Interp: "spline"})
		}, "unknown interpolation"},
		{"key lifespan mismatch", func() (*Scheme, error) {
			return New("R", []string{"K"},
				Attribute{Name: "K", Domain: value.Strings, Lifespan: ls("{[0,5]}")},
				Attribute{Name: "A", Domain: value.Ints, Lifespan: ls("{[0,9]}")})
		}, "differs from scheme lifespan"},
	}
	for _, c := range cases {
		_, err := c.mk()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.subst) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.subst)
		}
	}
	if _, err := New("R", []string{"K"}, okAttr); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	s := empScheme(t)
	if a, ok := s.Attr("SAL"); !ok || a.Interp != "step" {
		t.Error("Attr lookup failed")
	}
	if _, ok := s.Attr("NOPE"); ok {
		t.Error("Attr must miss unknown names")
	}
	if !s.HasAttr("DEPT") || s.HasAttr("X") {
		t.Error("HasAttr misbehaves")
	}
	if got := s.AttrNames(); len(got) != 3 || got[0] != "NAME" || got[2] != "DEPT" {
		t.Errorf("AttrNames = %v", got)
	}
	if !s.IsKey("NAME") || s.IsKey("SAL") {
		t.Error("IsKey misbehaves")
	}
	if !s.ALS("SAL").Equal(ls("{[0,49]}")) {
		t.Error("ALS lookup failed")
	}
	if !s.ALS("NOPE").IsEmpty() {
		t.Error("ALS of unknown attribute is empty")
	}
	if !s.Lifespan().Equal(ls("{[0,49]}")) {
		t.Errorf("scheme lifespan = %v", s.Lifespan())
	}
}

func TestSchemeLifespanIsUnionOfALS(t *testing.T) {
	// Fig 6: an attribute with a gap; another spanning the whole period.
	s := MustNew("STOCK", []string{"TICKER"},
		Attribute{Name: "TICKER", Domain: value.Strings, Lifespan: ls("{[0,40]}")},
		Attribute{Name: "PRICE", Domain: value.Floats, Lifespan: ls("{[0,40]}"), Interp: "linear"},
		Attribute{Name: "VOLUME", Domain: value.Ints, Lifespan: ls("{[10,20],[30,40]}")},
	)
	if !s.Lifespan().Equal(ls("{[0,40]}")) {
		t.Errorf("lifespan = %v", s.Lifespan())
	}
	if !s.ALS("VOLUME").Equal(ls("{[10,20],[30,40]}")) {
		t.Error("evolving attribute lifespan lost")
	}
}

func TestCompatibilityPredicates(t *testing.T) {
	a := empScheme(t)
	b := MustNew("EMP2", []string{"NAME"},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[50,99]}"), Interp: "step"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[50,99]}")},
		Attribute{Name: "SAL", Domain: value.Ints, Lifespan: ls("{[50,99]}"), Interp: "step"},
	)
	if !a.SameAttrs(b) {
		t.Error("same attrs+domains must be union-compatible (order-insensitive)")
	}
	if !a.MergeCompatible(b) {
		t.Error("same key too: merge-compatible")
	}
	c := MustNew("EMP3", []string{"SAL"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "SAL", Domain: value.Ints, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
	)
	if !a.SameAttrs(c) {
		t.Error("different key does not break union-compatibility")
	}
	if a.MergeCompatible(c) {
		t.Error("different key breaks merge-compatibility")
	}
	d := MustNew("OTHER", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "SAL", Domain: value.Floats, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
	)
	if a.SameAttrs(d) {
		t.Error("different domain for SAL breaks union-compatibility")
	}
}

func TestDisjointAndCommon(t *testing.T) {
	a := empScheme(t)
	b := MustNew("DEPTREL", []string{"DNAME"},
		Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: ls("{[0,49]}")},
	)
	if !a.DisjointAttrs(b) {
		t.Error("EMP and DEPTREL are disjoint")
	}
	c := MustNew("MGR", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: ls("{[0,49]}")},
	)
	if a.DisjointAttrs(c) {
		t.Error("EMP and MGR share NAME")
	}
	if got := a.CommonAttrs(c); len(got) != 1 || got[0] != "NAME" {
		t.Errorf("CommonAttrs = %v", got)
	}
}

func TestUnionIntersectScheme(t *testing.T) {
	a := empScheme(t) // [0,49]
	b := MustNew("EMPLATER", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[30,99]}")},
		Attribute{Name: "SAL", Domain: value.Ints, Lifespan: ls("{[30,99]}"), Interp: "step"},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[30,99]}"), Interp: "step"},
	)
	u, err := UnionScheme(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !u.ALS("SAL").Equal(ls("{[0,99]}")) {
		t.Errorf("union ALS = %v", u.ALS("SAL"))
	}
	i, err := IntersectScheme(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !i.ALS("SAL").Equal(ls("{[30,49]}")) {
		t.Errorf("intersect ALS = %v", i.ALS("SAL"))
	}
	// Disjoint ALS: intersection scheme is invalid (attributes never coexist).
	far := MustNew("FAR", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[500,600]}")},
		Attribute{Name: "SAL", Domain: value.Ints, Lifespan: ls("{[500,600]}")},
		Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: ls("{[500,600]}")},
	)
	if _, err := IntersectScheme(a, far, false); err == nil {
		t.Error("disjoint ALS intersection must fail")
	}
	// Incompatible schemes fail.
	other := MustNew("O", []string{"X"},
		Attribute{Name: "X", Domain: value.Ints, Lifespan: ls("{[0,9]}")})
	if _, err := UnionScheme(a, other, false); err == nil {
		t.Error("union of incompatible schemes must fail")
	}
}

// TestOperatorSchemeRules: each operator's result-scheme rule accepts
// well-typed operands, names the result as the operators always have,
// and refuses ill-typed ones with an error naming what is wrong.
func TestOperatorSchemeRules(t *testing.T) {
	emp := empScheme(t)
	rekeyed := MustNew("EMP3", []string{"SAL"}, emp.Attrs...)
	dept := MustNew("DEPTREL", []string{"DNAME"},
		Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: ls("{[0,49]}")},
		Attribute{Name: "OPENED", Domain: value.Times, Lifespan: ls("{[0,49]}")})
	ok := func(s *Scheme, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return s.Name, nil
	}
	for _, c := range []struct {
		name     string
		got      func() (string, error)
		want     string // the result's name
		wantFail string // or a substring of the error
	}{
		{"union", func() (string, error) { return ok(UnionScheme(emp, rekeyed, false)) }, "EMP", ""},
		{"union-merge, other key", func() (string, error) { return ok(UnionScheme(emp, rekeyed, true)) }, "", "not merge-compatible"},
		{"diff", func() (string, error) { return ok(DiffScheme(emp, rekeyed, false)) }, "EMP", ""},
		{"diff, other attributes", func() (string, error) { return ok(DiffScheme(emp, dept, false)) }, "", "not union-compatible"},
		{"product", func() (string, error) { return ok(ProductScheme(emp, dept)) }, "EMPxDEPTREL", ""},
		{"product, shared attributes", func() (string, error) { return ok(ProductScheme(emp, emp)) }, "", "share attributes"},
		{"join", func() (string, error) { return ok(JoinScheme(emp, dept, "DEPT", "DNAME")) }, "EMP⋈DEPTREL", ""},
		{"join, unknown attribute", func() (string, error) { return ok(JoinScheme(emp, dept, "DEPT", "NOPE")) }, "", "join attribute NOPE"},
		{"natural join", func() (string, error) { return ok(NaturalJoinScheme(emp, rekeyed)) }, "EMP⋈EMP3", ""},
		{"natural join, nothing shared", func() (string, error) { return ok(NaturalJoinScheme(emp, dept)) }, "", "share no attributes"},
		{"time join", func() (string, error) { return ok(TimeJoinScheme(dept, emp, "OPENED")) }, "DEPTREL⋈EMP", ""},
		{"time join, not time-valued", func() (string, error) { return ok(TimeJoinScheme(dept, emp, "DNAME")) }, "", "no time-valued attribute DNAME"},
	} {
		got, err := c.got()
		if c.wantFail == "" && (err != nil || got != c.want) {
			t.Errorf("%s: (%q, %v), want a scheme named %q", c.name, got, err, c.want)
		}
		if c.wantFail != "" && (err == nil || !strings.Contains(err.Error(), c.wantFail)) {
			t.Errorf("%s: (%q, %v), want an error containing %q", c.name, got, err, c.wantFail)
		}
	}
}

func TestProjectScheme(t *testing.T) {
	s := empScheme(t)
	p, err := ProjectScheme(s, []string{"NAME", "SAL"}, "P")
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameKey(s) {
		t.Error("projection keeping the key keeps the key")
	}
	// Dropping the key: new key is all projected attributes.
	q, err := ProjectScheme(s, []string{"SAL", "DEPT"}, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Key) != 2 || !q.IsKey("SAL") || !q.IsKey("DEPT") {
		t.Errorf("key after dropping original key = %v", q.Key)
	}
	if _, err := ProjectScheme(s, []string{"NOPE"}, "X"); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := ProjectScheme(s, nil, "X"); err == nil {
		t.Error("empty projection must fail")
	}
}

func TestConcatScheme(t *testing.T) {
	a := empScheme(t)
	b := MustNew("DEPTREL", []string{"DNAME"},
		Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: ls("{[20,79]}")},
		Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: ls("{[20,79]}")},
	)
	c, err := ConcatScheme(a, b, "X")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Attrs) != 5 {
		t.Errorf("concat attrs = %v", c.AttrNames())
	}
	if len(c.Key) != 2 || !c.IsKey("NAME") || !c.IsKey("DNAME") {
		t.Errorf("concat key = %v", c.Key)
	}
	// K1 ∪ K2 lifespans equal the combined scheme lifespan.
	if !c.ALS("NAME").Equal(ls("{[0,79]}")) || !c.ALS("DNAME").Equal(ls("{[0,79]}")) {
		t.Errorf("concat key lifespans: NAME %v DNAME %v", c.ALS("NAME"), c.ALS("DNAME"))
	}
	// Non-key shared attribute lifespans union (natural-join case).
	d := MustNew("MGR", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Strings, Lifespan: ls("{[50,99]}")},
		Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: ls("{[50,99]}")},
	)
	e, err := ConcatScheme(a, d, "NJ")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Attrs) != 4 {
		t.Errorf("natural concat attrs = %v", e.AttrNames())
	}
	if !e.ALS("NAME").Equal(ls("{[0,99]}")) {
		t.Errorf("shared attr lifespan = %v", e.ALS("NAME"))
	}
	// Conflicting domains on a shared attribute fail.
	f := MustNew("BAD", []string{"NAME"},
		Attribute{Name: "NAME", Domain: value.Ints, Lifespan: ls("{[0,9]}")})
	if _, err := ConcatScheme(a, f, "Y"); err == nil {
		t.Error("conflicting shared domains must fail")
	}
}

func TestRename(t *testing.T) {
	s := empScheme(t)
	r, err := s.Rename("e")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "e_EMP" || !r.HasAttr("e.NAME") || !r.IsKey("e.NAME") || r.HasAttr("NAME") {
		t.Errorf("rename produced %v (key %v)", r.AttrNames(), r.Key)
	}
}

func TestString(t *testing.T) {
	s := empScheme(t)
	got := s.String()
	for _, want := range []string{"EMP(", "NAME*", "SAL integers step", "{[0,49]}"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

// TestLabels: each attribute's label is " NAME=" with the name written
// through the form's Escape, for names that need no escaping and for
// names with quotes, backslashes, control bytes and U+2028; Rename
// builds the renamed scheme's own labels.
func TestLabels(t *testing.T) {
	all := ls("{[0,9]}")
	for _, names := range [][]string{
		{"NAME", "SAL", "DEPT"},
		{"K", `Q"T`, `B\S`, "N\nL", "U\u2028V", "é"},
	} {
		attrs := make([]Attribute, len(names))
		for i, n := range names {
			attrs[i] = Attribute{Name: n, Domain: value.Strings, Lifespan: all}
		}
		s, err := New("S", names[:1], attrs...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Rename("p")
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []*Scheme{s, r} {
			for i, a := range sc.Attrs {
				for _, f := range []value.Form{value.Text, value.Wire} {
					want := string(f.Escape([]byte(" "), a.Name)) + "="
					if got := sc.Label(i, f); got != want {
						t.Errorf("%s: Label(%d, %d) = %q, want %q", sc.Name, i, f, got, want)
					}
				}
			}
		}
	}
}
