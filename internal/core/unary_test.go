package core

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestProjectKeepsKey(t *testing.T) {
	emp := empRelation(t)
	p, err := Project(emp, "NAME", "SAL")
	mustHold(t, err)
	if p.Cardinality() != 3 {
		t.Fatalf("cardinality = %d", p.Cardinality())
	}
	john, _ := p.Lookup(`"John"`)
	if john == nil {
		t.Fatal("John lost")
	}
	if !john.Lifespan().Equal(ls("{[0,9]}")) {
		t.Error("projection must not change lifespans")
	}
	if v, _ := john.At("SAL", 7); v.AsInt() != 34000 {
		t.Error("projection must not change values")
	}
	if p.Scheme().HasAttr("DEPT") {
		t.Error("DEPT must be projected away")
	}
}

func TestProjectUnknownAttr(t *testing.T) {
	emp := empRelation(t)
	if _, err := Project(emp, "NOPE"); err == nil {
		t.Error("projection onto unknown attribute must fail")
	}
}

func TestProjectDropKeyMerges(t *testing.T) {
	// Projecting away the key keys the result on the remaining
	// attributes; objects with identical projected histories merge.
	s := empScheme()
	r := NewRelation(s)
	for _, n := range []string{"A", "B"} {
		r.MustInsert(NewTupleBuilder(s, ls("{[0,4]}")).
			Key("NAME", value.String_(n)).
			Set("DEPT", 0, 4, value.String_("Toys")).
			MustBuild())
	}
	p, err := Project(r, "DEPT")
	mustHold(t, err)
	if p.Cardinality() != 1 {
		t.Fatalf("identical projected histories must merge, got %d:\n%s", p.Cardinality(), p)
	}
	toys := p.Tuples()[0]
	if !toys.Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("merged lifespan = %v", toys.Lifespan())
	}
}

func TestSelectIfExists(t *testing.T) {
	emp := empRelation(t)
	// ∃s: SAL = 30000 — John (early) and Ahmed (early) qualify; their
	// whole tuples come back with lifespans unchanged.
	got, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(30000)}, Exists, lifespan.All())
	mustHold(t, err)
	if got.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2\n%s", got.Cardinality(), got)
	}
	john, ok := got.Lookup(`"John"`)
	if !ok {
		t.Fatal("John must qualify")
	}
	if !john.Lifespan().Equal(ls("{[0,9]}")) {
		t.Error("SELECT-IF must not change tuple lifespans")
	}
	if v, _ := john.At("SAL", 7); v.AsInt() != 34000 {
		t.Error("SELECT-IF must keep the full history, including non-matching periods")
	}
}

func TestSelectIfForAll(t *testing.T) {
	emp := empRelation(t)
	// ∀s: SAL >= 31000 — only Mary (40000 throughout). Ahmed fails (30000
	// early), John fails (30000 early).
	got, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(31000)}, ForAll, lifespan.All())
	mustHold(t, err)
	if got.Cardinality() != 1 {
		t.Fatalf("cardinality = %d, want 1\n%s", got.Cardinality(), got)
	}
	if _, ok := got.Lookup(`"Mary"`); !ok {
		t.Error("Mary must qualify")
	}
}

func TestSelectIfScopedLifespan(t *testing.T) {
	emp := empRelation(t)
	// Within L = [5,9]: ∀s SAL >= 31000 holds for John (34000 on [5,9]),
	// Mary (40000), and Ahmed (31000 on [8,9]).
	got, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(31000)}, ForAll, ls("{[5,9]}"))
	mustHold(t, err)
	if got.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3\n%s", got.Cardinality(), got)
	}
	// Within L = [0,4]: ∃s SAL >= 31000 holds only for Mary.
	got2, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(31000)}, Exists, ls("{[0,4]}"))
	mustHold(t, err)
	if got2.Cardinality() != 1 {
		t.Fatalf("scoped ∃ cardinality = %d, want 1", got2.Cardinality())
	}
}

func TestSelectIfVacuousForAll(t *testing.T) {
	emp := empRelation(t)
	// L disjoint from every lifespan: ∀ over the empty scope is vacuously
	// true — all tuples qualify (bounded quantification semantics).
	got, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(-1)}, ForAll, ls("{[90,99]}"))
	mustHold(t, err)
	if got.Cardinality() != emp.Cardinality() {
		t.Errorf("vacuous ∀ must keep all tuples, got %d", got.Cardinality())
	}
	// while ∃ over the empty scope is false — none qualify.
	got2, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(-1)}, Exists, ls("{[90,99]}"))
	mustHold(t, err)
	if got2.Cardinality() != 0 {
		t.Errorf("empty-scope ∃ must drop all tuples, got %d", got2.Cardinality())
	}
}

func TestSelectWhenPaperExample(t *testing.T) {
	// The paper's example: σ-WHEN(NAME=John, SAL=30K)(emp) yields a
	// relation with only John's tuple, with lifespan exactly the times
	// when John earned 30K.
	emp := empRelation(t)
	johns, err := SelectWhen(emp, Predicate{Attr: "NAME", Theta: value.EQ, Const: value.String_("John")}, lifespan.All())
	mustHold(t, err)
	got, err := SelectWhen(johns, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(30000)}, lifespan.All())
	mustHold(t, err)
	tp := singleTuple(t, got)
	if !tp.Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("WHEN lifespan = %v, want {[0,4]}", tp.Lifespan())
	}
	if v, _ := tp.At("SAL", 2); v.AsInt() != 30000 {
		t.Error("values preserved over the matching period")
	}
	if _, ok := tp.At("SAL", 7); ok {
		t.Error("values outside the matching period must be cut")
	}
}

func TestSelectWhenDropsNonMatching(t *testing.T) {
	emp := empRelation(t)
	got, err := SelectWhen(emp, Predicate{Attr: "SAL", Theta: value.GT, Const: value.Int(35000)}, lifespan.All())
	mustHold(t, err)
	// Only Mary ever exceeds 35000.
	tp := singleTuple(t, got)
	if v := tp.KeyValue("NAME"); v.AsString() != "Mary" {
		t.Errorf("unexpected survivor %v", v)
	}
	if !tp.Lifespan().Equal(ls("{[3,19]}")) {
		t.Errorf("Mary matches over her whole lifespan, got %v", tp.Lifespan())
	}
}

func TestSelectWhenDisconnectedResult(t *testing.T) {
	// An attribute that oscillates produces a disconnected WHEN lifespan.
	s := empScheme()
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, ls("{[0,9]}")).
		Key("NAME", value.String_("Flip")).
		Set("SAL", 0, 2, value.Int(10)).
		Set("SAL", 3, 5, value.Int(20)).
		Set("SAL", 6, 9, value.Int(10)).
		MustBuild())
	got, err := SelectWhen(r, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(10)}, lifespan.All())
	mustHold(t, err)
	tp := singleTuple(t, got)
	if !tp.Lifespan().Equal(ls("{[0,2],[6,9]}")) {
		t.Errorf("oscillating WHEN lifespan = %v", tp.Lifespan())
	}
}

func TestSelectAttrVsAttr(t *testing.T) {
	// Predicate with attribute RHS: SAL = BONUS.
	full := ls("{[0,9]}")
	s := schema.MustNew("R", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full},
	)
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, full).
		Key("K", value.String_("x")).
		Set("SAL", 0, 9, value.Int(100)).
		Set("BONUS", 0, 4, value.Int(100)).
		Set("BONUS", 5, 9, value.Int(50)).
		MustBuild())
	got, err := SelectWhen(r, Predicate{Attr: "SAL", Theta: value.EQ, OtherAttr: "BONUS"}, lifespan.All())
	mustHold(t, err)
	tp := singleTuple(t, got)
	if !tp.Lifespan().Equal(ls("{[0,4]}")) {
		t.Errorf("SAL=BONUS holds on {[0,4]}, got %v", tp.Lifespan())
	}
}

func TestSelectErrors(t *testing.T) {
	emp := empRelation(t)
	if _, err := SelectIf(emp, Predicate{Attr: "NOPE", Theta: value.EQ, Const: value.Int(1)}, Exists, lifespan.All()); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := SelectWhen(emp, Predicate{Attr: "SAL", Theta: value.EQ, OtherAttr: "NOPE"}, lifespan.All()); err == nil {
		t.Error("unknown RHS attribute must fail")
	}
	if _, err := SelectIf(emp, Predicate{Attr: "SAL", Theta: value.EQ}, Exists, lifespan.All()); err == nil {
		t.Error("invalid constant must fail")
	}
	// Incomparable kinds surface as errors.
	if _, err := SelectWhen(emp, Predicate{Attr: "SAL", Theta: value.LT, Const: value.String_("x")}, lifespan.All()); err == nil {
		t.Error("ordering int against string must fail")
	}
}

func TestTimesliceStatic(t *testing.T) {
	emp := empRelation(t)
	sliced, err := TimesliceStatic(emp, ls("{[4,6]}"))
	mustHold(t, err)
	// John [0,9]→[4,6]; Mary [3,19]→[4,6]; Ahmed [0,3]∪[8,14]→∅ (gone).
	if sliced.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2\n%s", sliced.Cardinality(), sliced)
	}
	john, _ := sliced.Lookup(`"John"`)
	if !john.Lifespan().Equal(ls("{[4,6]}")) {
		t.Errorf("sliced lifespan = %v", john.Lifespan())
	}
	if v, _ := john.At("SAL", 4); v.AsInt() != 30000 {
		t.Error("pre-raise value expected at 4")
	}
	if v, _ := john.At("SAL", 6); v.AsInt() != 34000 {
		t.Error("post-raise value expected at 6")
	}
	if _, ok := john.At("SAL", 8); ok {
		t.Error("values outside the slice must be undefined")
	}
}

func TestTimesliceEmptyAndIdentity(t *testing.T) {
	emp := empRelation(t)
	empty, err := TimesliceStatic(emp, ls("{[90,99]}"))
	mustHold(t, err)
	if empty.Cardinality() != 0 {
		t.Error("slice outside all lifespans is empty")
	}
	ident, err := TimesliceStatic(emp, lifespan.All())
	mustHold(t, err)
	if !ident.Equal(emp) {
		t.Error("T_T(r) = r")
	}
}

func TestTimesliceDynamic(t *testing.T) {
	// A relation with a time-valued attribute REVIEW: each employee's
	// review dates. T@REVIEW(r) keeps each tuple only at the times its
	// REVIEW attribute refers to.
	full := ls("{[0,19]}")
	s := schema.MustNew("EMPREV", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "REVIEW", Domain: value.Times, Lifespan: full},
	)
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, ls("{[0,10]}")).
		Key("NAME", value.String_("John")).
		Set("SAL", 0, 10, value.Int(100)).
		Set("REVIEW", 0, 4, value.TimeVal(3)).  // review scheduled at 3
		Set("REVIEW", 5, 10, value.TimeVal(9)). // then at 9
		MustBuild())
	r.MustInsert(NewTupleBuilder(s, ls("{[0,10]}")).
		Key("NAME", value.String_("Mary")).
		Set("SAL", 0, 10, value.Int(200)).
		Set("REVIEW", 0, 10, value.TimeVal(50)). // refers outside her lifespan
		MustBuild())
	got, err := TimesliceDynamic(r, "REVIEW")
	mustHold(t, err)
	// John survives at {3,9}; Mary's image {50} misses her lifespan.
	tp := singleTuple(t, got)
	if !tp.Lifespan().Equal(ls("{3,9}")) {
		t.Errorf("dynamic slice lifespan = %v, want {3,9}", tp.Lifespan())
	}
	// Errors: unknown attribute, non-time-valued attribute.
	if _, err := TimesliceDynamic(r, "NOPE"); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := TimesliceDynamic(r, "SAL"); err == nil {
		t.Error("non-time-valued attribute must fail")
	}
}

func TestWhenFeedsTimeslice(t *testing.T) {
	// "since the result of WHEN is a lifespan, it can serve as the
	// parameter to those relational operators which require a lifespan":
	// slice EMP to the times when anyone earned 30000.
	emp := empRelation(t)
	low, err := SelectWhen(emp, Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(30000)}, lifespan.All())
	mustHold(t, err)
	when := When(low) // John [0,4] ∪ Ahmed [0,3] = [0,4]
	if !when.Equal(ls("{[0,4]}")) {
		t.Fatalf("Ω = %v, want {[0,4]}", when)
	}
	sliced, err := TimesliceStatic(emp, when)
	mustHold(t, err)
	mary, _ := sliced.Lookup(`"Mary"`)
	if !mary.Lifespan().Equal(ls("{[3,4]}")) {
		t.Errorf("Mary during low-pay times = %v", mary.Lifespan())
	}
}

// pointwiseWhen is the chronon-by-chronon reference of Predicate.when:
// the times of scope at which holdsAt is true.
func pointwiseWhen(p Predicate, t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	var b lifespan.Builder
	var err error
	scope.Each(func(s chronon.Time) bool {
		var ok bool
		if ok, err = p.holdsAt(t, s); ok {
			b.Add(chronon.Point(s))
		}
		return err == nil
	})
	return b.Lifespan(), err
}

// TestWhenMatchesPointwise checks the step-walking satisfaction lifespan
// — including the attribute-RHS form, which is thetaTimes' merge walk —
// against evaluating the predicate at every chronon of the scope.
func TestWhenMatchesPointwise(t *testing.T) {
	preds := func(seed int64) []Predicate {
		return []Predicate{
			randomPredicate(seed),
			{Attr: "SAL", Theta: value.GE, Const: value.Int(0)},
			{Attr: "SAL", Theta: value.LT, OtherAttr: "SAL"},
			{Attr: "SAL", Theta: value.EQ, OtherAttr: "SAL"},
			{Attr: "DEPT", Theta: value.NE, OtherAttr: "DEPT"},
			{Attr: "SAL", Theta: value.EQ, OtherAttr: "DEPT"}, // incomparable kinds
		}
	}
	for seed := int64(0); seed < lawTrials; seed++ {
		r := genHist(seed, 5)
		for _, scopeOf := range []func(*Tuple) lifespan.Lifespan{
			func(tp *Tuple) lifespan.Lifespan { return tp.l },
			func(tp *Tuple) lifespan.Lifespan { return tp.l.Intersect(randomLS(seed)) },
		} {
			for _, tp := range r.Tuples() {
				scope := scopeOf(tp)
				for _, p := range preds(seed) {
					got, gerr := p.when(tp, scope)
					want, werr := pointwiseWhen(p, tp, scope)
					if (gerr == nil) != (werr == nil) || !got.Equal(want) {
						t.Errorf("seed %d: %s over %v of %v = %v (%v), want %v (%v)",
							seed, p, scope, tp, got, gerr, want, werr)
					}
				}
			}
		}
	}
}
