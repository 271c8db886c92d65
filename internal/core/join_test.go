package core

import (
	"testing"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestEquiJoinEmpDept(t *testing.T) {
	// EMP ⋈ DEPTREL on DEPT = DNAME: each (employee, department) pair
	// joins over exactly the times the employee worked in that
	// department (and both tuples exist).
	emp := empRelation(t)
	dept := deptRelation(t)
	j, err := EquiJoin(emp, dept, "DEPT", "DNAME")
	mustHold(t, err)
	// Expected pairs: John-Toys [0,9], Mary-Shoes [3,9], Mary-Books
	// [10,19], Ahmed-Toys [0,3], Ahmed-Books [8,14].
	if j.Cardinality() != 5 {
		t.Fatalf("cardinality = %d, want 5\n%s", j.Cardinality(), j)
	}
	check := func(name, dname, want string) {
		t.Helper()
		tp, ok := j.Lookup(`"`+name+`"`, `"`+dname+`"`)
		if !ok {
			t.Fatalf("pair %s-%s missing", name, dname)
		}
		if !tp.Lifespan().Equal(ls(want)) {
			t.Errorf("%s-%s lifespan = %v, want %s", name, dname, tp.Lifespan(), want)
		}
	}
	check("John", "Toys", "{[0,9]}")
	check("Mary", "Shoes", "{[3,9]}")
	check("Mary", "Books", "{[10,19]}")
	check("Ahmed", "Toys", "{[0,3]}")
	check("Ahmed", "Books", "{[8,14]}")

	// Joined values restricted to the join lifespan — no nulls (paper
	// Section 5: JOIN ≡ SELECT-WHEN of the product, "thus no nulls
	// result").
	mb, _ := j.Lookup(`"Mary"`, `"Books"`)
	if _, ok := mb.At("FLOOR", 5); ok {
		t.Error("values before the join lifespan must be undefined")
	}
	if v, _ := mb.At("FLOOR", 12); v.AsInt() != 4 {
		t.Error("joined FLOOR value wrong")
	}
	if v, _ := mb.At("SAL", 12); v.AsInt() != 40000 {
		t.Error("joined SAL value wrong")
	}
}

func TestThetaJoinGT(t *testing.T) {
	// Join employees to employees: pairs (a,b) over times when a earned
	// strictly more than b.
	emp := empRelation(t)
	b, err := emp.Rename("b")
	mustHold(t, err)
	j, err := ThetaJoin(emp, b, "SAL", value.GT, "b.SAL")
	mustHold(t, err)
	// Mary (40000) out-earns everyone whenever both exist:
	//   Mary>John over [3,9], Mary>Ahmed over [3]∪[8,14]∩... = [3,3]∪[8,14]∩[3,19]
	mj, ok := j.Lookup(`"Mary"`, `"John"`)
	if !ok || !mj.Lifespan().Equal(ls("{[3,9]}")) {
		t.Errorf("Mary>John = %v", mj)
	}
	ma, ok := j.Lookup(`"Mary"`, `"Ahmed"`)
	if !ok || !ma.Lifespan().Equal(ls("{3,[8,14]}")) {
		t.Errorf("Mary>Ahmed = %v", ma)
	}
	// John>Ahmed over times both defined and 30000>30000 false, then
	// 34000>31000 on [8,9].
	ja, ok := j.Lookup(`"John"`, `"Ahmed"`)
	if !ok || !ja.Lifespan().Equal(ls("{[8,9]}")) {
		t.Errorf("John>Ahmed = %v", ja)
	}
	// Nobody out-earns Mary.
	if _, ok := j.Lookup(`"John"`, `"Mary"`); ok {
		t.Error("John never out-earns Mary")
	}
}

func TestThetaJoinErrors(t *testing.T) {
	emp := empRelation(t)
	dept := deptRelation(t)
	if _, err := ThetaJoin(emp, emp, "SAL", value.GT, "SAL"); err == nil {
		t.Error("shared attributes must fail")
	}
	if _, err := ThetaJoin(emp, dept, "NOPE", value.EQ, "DNAME"); err == nil {
		t.Error("unknown left attribute must fail")
	}
	if _, err := ThetaJoin(emp, dept, "DEPT", value.EQ, "NOPE"); err == nil {
		t.Error("unknown right attribute must fail")
	}
	if _, err := ThetaJoin(emp, dept, "SAL", value.LT, "DNAME"); err == nil {
		t.Error("incomparable kinds must fail")
	}
}

func TestNaturalJoin(t *testing.T) {
	// EMP(NAME,SAL,DEPT) ⋈ MGR(NAME,BONUS): common attribute NAME.
	full := ls("{[0,99]}")
	ms := schema.MustNew("MGR", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full},
	)
	mgr := NewRelation(ms)
	mgr.MustInsert(NewTupleBuilder(ms, ls("{[5,12]}")).
		Key("NAME", value.String_("John")).
		Set("BONUS", 5, 12, value.Int(500)).
		MustBuild())
	mgr.MustInsert(NewTupleBuilder(ms, ls("{[0,19]}")).
		Key("NAME", value.String_("Mary")).
		Set("BONUS", 0, 19, value.Int(900)).
		MustBuild())

	emp := empRelation(t)
	j, err := NaturalJoin(emp, mgr)
	mustHold(t, err)
	// John: emp [0,9] ∩ mgr [5,12] = [5,9]; Mary: [3,19] ∩ [0,19] = [3,19].
	if j.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2\n%s", j.Cardinality(), j)
	}
	john, _ := j.Lookup(`"John"`)
	if !john.Lifespan().Equal(ls("{[5,9]}")) {
		t.Errorf("John ⋈ lifespan = %v", john.Lifespan())
	}
	// NAME appears once; both sides' other attributes present.
	if len(j.Scheme().Attrs) != 4 {
		t.Errorf("natural join attrs = %v", j.Scheme().AttrNames())
	}
	if v, _ := john.At("SAL", 7); v.AsInt() != 34000 {
		t.Error("left value lost")
	}
	if v, _ := john.At("BONUS", 7); v.AsInt() != 500 {
		t.Error("right value lost")
	}
	if _, err := NaturalJoin(emp, deptRelation(t)); err == nil {
		t.Error("no shared attributes must fail")
	}
}

func TestNaturalJoinCommutes(t *testing.T) {
	// Section 5 claims "the commutativity of the natural join" carries
	// over to HRDM.
	full := ls("{[0,99]}")
	ms := schema.MustNew("MGR", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full},
	)
	mgr := NewRelation(ms)
	mgr.MustInsert(NewTupleBuilder(ms, ls("{[5,12]}")).
		Key("NAME", value.String_("John")).
		Set("BONUS", 5, 12, value.Int(500)).
		MustBuild())
	emp := empRelation(t)
	ab, err := NaturalJoin(emp, mgr)
	mustHold(t, err)
	ba, err := NaturalJoin(mgr, emp)
	mustHold(t, err)
	if !ab.Equal(ba) {
		t.Errorf("natural join must commute:\n%s\nvs\n%s", ab, ba)
	}
}

func TestTimeJoin(t *testing.T) {
	// SHIPMENT(ID*, SHIPDATE: time-valued) time-joined with DEPTREL:
	// pairs each shipment with department states current at the times the
	// shipment's SHIPDATE attribute refers to.
	full := ls("{[0,99]}")
	ss := schema.MustNew("SHIP", []string{"ID"},
		schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "SHIPDATE", Domain: value.Times, Lifespan: full},
	)
	ship := NewRelation(ss)
	// Shipment 1 exists [0,19]; its ship date attribute points at time 7.
	ship.MustInsert(NewTupleBuilder(ss, ls("{[0,19]}")).
		Key("ID", value.Int(1)).
		Set("SHIPDATE", 0, 19, value.TimeVal(7)).
		MustBuild())
	// Shipment 2 refers to time 50 — outside DEPTREL lifespans.
	ship.MustInsert(NewTupleBuilder(ss, ls("{[0,19]}")).
		Key("ID", value.Int(2)).
		Set("SHIPDATE", 0, 19, value.TimeVal(50)).
		MustBuild())

	dept := deptRelation(t)
	j, err := TimeJoin(ship, dept, "SHIPDATE")
	mustHold(t, err)
	// Shipment 1 at time 7 joins all three departments alive at 7 (Toys,
	// Shoes, Books[5,19]); shipment 2 joins nothing.
	if j.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3\n%s", j.Cardinality(), j)
	}
	for _, dname := range []string{"Toys", "Shoes", "Books"} {
		tp, ok := j.Lookup("1", `"`+dname+`"`)
		if !ok {
			t.Fatalf("pair 1-%s missing", dname)
		}
		if !tp.Lifespan().Equal(ls("{7}")) {
			t.Errorf("1-%s lifespan = %v, want {7}", dname, tp.Lifespan())
		}
		if v, ok := tp.At("FLOOR", 7); !ok || !v.IsValid() {
			t.Errorf("1-%s FLOOR missing at 7", dname)
		}
	}
	// Errors.
	if _, err := TimeJoin(ship, dept, "NOPE"); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := TimeJoin(dept, ship, "FLOOR"); err == nil {
		t.Error("non-time-valued attribute must fail")
	}
}

func TestJoinEquivalenceToSelectWhenOfProduct(t *testing.T) {
	// Paper Section 5: "we have defined the JOIN operations ... to be
	// equivalent to the appropriate SELECT-WHEN of the Cartesian
	// product". Verify θ-join = σ-WHEN_{AθB}(r1 × r2) on lifespans and
	// values, modulo the null-bearing product tuples that σ-WHEN trims.
	emp := empRelation(t)
	dept := deptRelation(t)
	viaJoin, err := EquiJoin(emp, dept, "DEPT", "DNAME")
	mustHold(t, err)
	prod, err := Product(emp, dept)
	mustHold(t, err)
	viaProduct, err := SelectWhen(prod, Predicate{Attr: "DEPT", Theta: value.EQ, OtherAttr: "DNAME"}, lifespan.All())
	mustHold(t, err)
	if viaJoin.Cardinality() != viaProduct.Cardinality() {
		t.Fatalf("join %d tuples, select-when of product %d", viaJoin.Cardinality(), viaProduct.Cardinality())
	}
	for _, tp := range viaJoin.Tuples() {
		u, ok := viaProduct.lookupTuple(tp)
		if !ok {
			t.Fatalf("pair %s missing from product route", tp.key(viaJoin.Scheme()))
		}
		if !tp.Lifespan().Equal(u.Lifespan()) {
			t.Errorf("lifespan mismatch for %s: %v vs %v", tp.key(viaJoin.Scheme()), tp.Lifespan(), u.Lifespan())
		}
	}
}

func TestTimeJoinEquivalesDynamicSliceJoin(t *testing.T) {
	// "Essentially such a JOIN serves as a join of dynamic TIME-SLICEs of
	// both relations": r1[@A]r2 has the same pairs and lifespans as
	// slicing r1 by A's image per tuple and intersecting with r2 tuples.
	full := ls("{[0,99]}")
	ss := schema.MustNew("SHIP", []string{"ID"},
		schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "SHIPDATE", Domain: value.Times, Lifespan: full},
	)
	ship := NewRelation(ss)
	ship.MustInsert(NewTupleBuilder(ss, ls("{[0,19]}")).
		Key("ID", value.Int(1)).
		Set("SHIPDATE", 0, 9, value.TimeVal(7)).
		Set("SHIPDATE", 10, 19, value.TimeVal(12)).
		MustBuild())
	dept := deptRelation(t)
	tj, err := TimeJoin(ship, dept, "SHIPDATE")
	mustHold(t, err)
	// Image of SHIPDATE = {7,12}; Toys alive at both → lifespan {7,12}.
	tp, ok := tj.Lookup("1", `"Toys"`)
	if !ok || !tp.Lifespan().Equal(ls("{7,12}")) {
		t.Errorf("time-join Toys = %v", tp)
	}
	// Equivalent route: dynamic-slice ship, then product and restrict.
	sliced, err := TimesliceDynamic(ship, "SHIPDATE")
	mustHold(t, err)
	st := singleTuple(t, sliced)
	if !st.Lifespan().Equal(ls("{7,12}")) {
		t.Fatalf("dynamic slice lifespan = %v", st.Lifespan())
	}
	for _, dtp := range dept.Tuples() {
		wantLS := st.Lifespan().Intersect(dtp.Lifespan())
		got, ok := tj.Lookup("1", dtp.KeyValue("DNAME").String())
		if wantLS.IsEmpty() {
			if ok {
				t.Errorf("pair with empty intersection must not join: %v", got)
			}
			continue
		}
		if !ok || !got.Lifespan().Equal(wantLS) {
			t.Errorf("time-join pair lifespan = %v, want %v", got, wantLS)
		}
	}
}
