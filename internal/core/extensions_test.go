package core

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestThetaJoinOuterLifespanUnion(t *testing.T) {
	emp := empRelation(t)
	dept := deptRelation(t)
	j, err := ThetaJoinOuter(emp, dept, "DEPT", value.EQ, "DNAME")
	mustHold(t, err)
	// Same pairs as the inner equijoin...
	inner, err := EquiJoin(emp, dept, "DEPT", "DNAME")
	mustHold(t, err)
	if j.Cardinality() != inner.Cardinality() {
		t.Fatalf("outer join pairs %d, inner %d", j.Cardinality(), inner.Cardinality())
	}
	// ...but over the union of lifespans, with nulls outside the
	// contributing tuples' lifespans.
	mb, ok := j.Lookup(`"Mary"`, `"Books"`)
	if !ok {
		t.Fatal("Mary-Books missing")
	}
	// Mary [3,19] ∪ Books [5,19] = [3,19].
	if !mb.Lifespan().Equal(ls("{[3,19]}")) {
		t.Errorf("outer join lifespan = %v, want union {[3,19]}", mb.Lifespan())
	}
	// FLOOR is null over [3,4] (before Books existed).
	if !NullLifespan(j, mb, "FLOOR").Equal(ls("{[3,4]}")) {
		t.Errorf("FLOOR null lifespan = %v", NullLifespan(j, mb, "FLOOR"))
	}
	// SAL is defined over all of Mary's life.
	if !NullLifespan(j, mb, "SAL").IsEmpty() {
		t.Errorf("SAL should have no nulls: %v", NullLifespan(j, mb, "SAL"))
	}
	// The inner join result has NO nulls anywhere (paper: "no nulls
	// result").
	for _, tp := range inner.Tuples() {
		for _, a := range inner.Scheme().Attrs {
			if !NullLifespan(inner, tp, a.Name).IsEmpty() {
				t.Fatalf("inner join introduced a null: %s on %v", a.Name, tp)
			}
		}
	}
}

func TestThetaJoinOuterRequiresSatisfyingTime(t *testing.T) {
	// A pair that never satisfies θ at a shared time does not appear even
	// though lifespans overlap.
	emp := empRelation(t)
	dept := deptRelation(t)
	j, err := ThetaJoinOuter(emp, dept, "DEPT", value.EQ, "DNAME")
	mustHold(t, err)
	if _, ok := j.Lookup(`"John"`, `"Books"`); ok {
		t.Error("John never worked in Books")
	}
	// Errors mirror the inner join's.
	if _, err := ThetaJoinOuter(emp, emp, "DEPT", value.EQ, "DEPT"); err == nil {
		t.Error("shared attributes must fail")
	}
	if _, err := ThetaJoinOuter(emp, dept, "NOPE", value.EQ, "DNAME"); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := ThetaJoinOuter(emp, dept, "DEPT", value.EQ, "NOPE"); err == nil {
		t.Error("unknown right attribute must fail")
	}
}

func TestOuterJoinEquivalentToSelectIfOfProduct(t *testing.T) {
	// Paper: outer join ≡ SELECT-IF of the Cartesian product.
	emp := empRelation(t)
	dept := deptRelation(t)
	outer, err := ThetaJoinOuter(emp, dept, "DEPT", value.EQ, "DNAME")
	mustHold(t, err)
	prod, err := Product(emp, dept)
	mustHold(t, err)
	viaIf, err := SelectIf(prod, Predicate{Attr: "DEPT", Theta: value.EQ, OtherAttr: "DNAME"}, Exists, lifespan.All())
	mustHold(t, err)
	if outer.Cardinality() != viaIf.Cardinality() {
		t.Fatalf("outer join %d pairs, σ-IF(×) %d", outer.Cardinality(), viaIf.Cardinality())
	}
	for _, tp := range outer.Tuples() {
		u, ok := viaIf.lookupTuple(tp)
		if !ok {
			t.Fatalf("pair %s missing from σ-IF route", tp.key(outer.Scheme()))
		}
		if !tp.Lifespan().Equal(u.Lifespan()) {
			t.Errorf("lifespan mismatch: %v vs %v", tp.Lifespan(), u.Lifespan())
		}
	}
}

func TestMaterialize(t *testing.T) {
	// A relation stored sparsely at the representation level: SAL only at
	// change points, DEPT as constants.
	full := ls("{[0,99]}")
	s := schema.MustNew("EMPR", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "PRICE", Domain: value.Floats, Lifespan: full, Interp: "linear"},
	)
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, ls("{[0,9]}")).
		Key("NAME", value.String_("John")).
		SetAt("SAL", 0, value.Int(30000)).
		SetAt("SAL", 5, value.Int(34000)).
		SetAt("PRICE", 0, value.Float(10)).
		SetAt("PRICE", 8, value.Float(18)).
		MustBuild())

	m, err := Materialize(r)
	mustHold(t, err)
	john := m.Tuples()[0]
	// Step interpolation fills SAL.
	for tm, want := range map[int]int64{0: 30000, 3: 30000, 5: 34000, 9: 34000} {
		if v, ok := john.At("SAL", chronon.Time(tm)); !ok || v.AsInt() != want {
			t.Errorf("SAL at %d = %v, want %d", tm, v, want)
		}
	}
	// Linear interpolation fills PRICE.
	if v, ok := john.At("PRICE", 4); !ok || v.AsFloat() != 14 {
		t.Errorf("PRICE at 4 = %v, want 14", v)
	}
	if v, ok := john.At("PRICE", 9); !ok || v.AsFloat() != 18 {
		t.Errorf("PRICE at 9 = %v (carried forward), want 18", v)
	}
	// Total on vls.
	if !john.Value("SAL").Domain().Equal(ls("{[0,9]}")) {
		t.Errorf("materialized SAL domain = %v", john.Value("SAL").Domain())
	}
}

func TestMaterializeDiscreteRequiresTotal(t *testing.T) {
	full := ls("{[0,99]}")
	s := schema.MustNew("R", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full}, // discrete
	)
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, ls("{[0,9]}")).
		Key("K", value.String_("a")).
		SetAt("V", 3, value.Int(1)).
		MustBuild())
	if _, err := Materialize(r); err == nil {
		t.Error("discrete attribute with gaps must fail materialization")
	}
	// A nowhere-defined attribute is fine (nothing to extend).
	r2 := NewRelation(s)
	r2.MustInsert(NewTupleBuilder(s, ls("{[0,9]}")).
		Key("K", value.String_("b")).
		MustBuild())
	m, err := Materialize(r2)
	mustHold(t, err)
	if !m.Tuples()[0].Value("V").IsNowhereDefined() {
		t.Error("empty value must stay empty")
	}
}

func TestMaterializeIdempotentOnTotal(t *testing.T) {
	emp := empRelation(t) // already total step functions
	m, err := Materialize(emp)
	mustHold(t, err)
	if !m.Equal(emp) {
		t.Error("materializing a total relation is the identity")
	}
}

func TestCoalesceValueLifespans(t *testing.T) {
	emp := empRelation(t)
	counts := make(map[string]int)
	for _, tp := range emp.Tuples() {
		for i, a := range emp.scheme.Attrs {
			counts[a.Name] += tp.v[i].NumSteps()
		}
	}
	// John: SAL 2 steps; Mary: 1; Ahmed: 2 → 5.
	if counts["SAL"] != 5 {
		t.Errorf("SAL steps = %d, want 5", counts["SAL"])
	}
	// NAME: constants over (possibly gapped) lifespans — John 1, Mary 1,
	// Ahmed 2 (two lifespan intervals).
	if counts["NAME"] != 4 {
		t.Errorf("NAME steps = %d, want 4", counts["NAME"])
	}
}
