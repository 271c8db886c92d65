package core

import (
	"strings"
	"testing"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

func TestNewTupleValidation(t *testing.T) {
	s := empScheme()
	full := ls("{[0,9]}")
	key := tfunc.Constant(full, value.String_("John"))
	sal := tfunc.Constant(full, value.Int(30000))

	// Valid tuple.
	if _, err := NewTuple(s, full, []tfunc.Func{key, sal, {}}); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	// Empty lifespan.
	if _, err := NewTuple(s, lifespan.Empty(), nil); err == nil {
		t.Error("empty lifespan must fail")
	}
	// A value for an attribute the scheme lacks, or one missing.
	if _, err := NewTuple(s, full, []tfunc.Func{key, sal, {}, sal}); err == nil {
		t.Error("extra value must fail")
	}
	if _, err := NewTuple(s, full, []tfunc.Func{key, sal}); err == nil {
		t.Error("missing value must fail")
	}
	// Value outside vls.
	wide := tfunc.Constant(ls("{[0,50]}"), value.Int(1))
	if _, err := NewTuple(s, full, []tfunc.Func{key, wide, {}}); err == nil {
		t.Error("value outside tuple lifespan must fail")
	}
	// Value outside domain.
	badKind := tfunc.Constant(full, value.String_("notanint"))
	if _, err := NewTuple(s, full, []tfunc.Func{key, badKind, {}}); err == nil {
		t.Error("value outside attribute domain must fail")
	}
	// Non-constant key.
	varying := (&tfunc.Builder{}).
		Set(0, 4, value.String_("John")).
		Set(5, 9, value.String_("Johnny")).Build()
	if _, err := NewTuple(s, full, []tfunc.Func{varying, sal, {}}); err == nil {
		t.Error("varying key must fail (DOM(K) ∈ CD)")
	}
	// Key not covering vls.
	partialKey := tfunc.Constant(ls("{[0,4]}"), value.String_("John"))
	if _, err := NewTuple(s, full, []tfunc.Func{partialKey, sal, {}}); err == nil {
		t.Error("key undefined over part of vls must fail")
	}
	// Missing non-key attribute is fine (nowhere-defined value).
	if _, err := NewTuple(s, full, []tfunc.Func{key, {}, {}}); err != nil {
		t.Errorf("missing non-key value should default to nowhere-defined: %v", err)
	}
	// Missing key attribute is not fine.
	if _, err := NewTuple(s, full, []tfunc.Func{{}, sal, {}}); err == nil {
		t.Error("missing key must fail")
	}
}

func TestVLS(t *testing.T) {
	// Figure 7 of the paper: the value of attribute An for tuple_m is
	// defined over X ∩ Y where X = ALS(An) and Y = tuple lifespan.
	attrLS := ls("{[0,10],[20,30]}") // X
	full := attrLS.Union(ls("{[11,19]}"))
	s := schema.MustNew("R", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "An", Domain: value.Ints, Lifespan: attrLS},
	)
	tupleLS := ls("{[5,25]}") // Y
	tp := NewTupleBuilder(s, tupleLS).
		Key("K", value.String_("obj")).
		Set("An", 5, 10, value.Int(1)).
		Set("An", 20, 25, value.Int(2)).
		MustBuild()
	want := ls("{[5,10],[20,25]}") // X ∩ Y
	if got := tp.VLS(s, "An"); !got.Equal(want) {
		t.Errorf("vls = %v, want %v", got, want)
	}
	// VLSSet intersects across attributes.
	if got := tp.VLSSet(s, []string{"K", "An"}); !got.Equal(want) {
		t.Errorf("vls set = %v, want %v", got, want)
	}
	if got := tp.VLSSet(s, []string{"K"}); !got.Equal(tupleLS) {
		t.Errorf("vls(K) = %v, want %v", got, tupleLS)
	}
}

func TestTupleAtUndefined(t *testing.T) {
	r := empRelation(t)
	john, ok := r.Lookup(`"John"`)
	if !ok {
		t.Fatal("John not found")
	}
	if v, ok := john.At("SAL", 3); !ok || v.AsInt() != 30000 {
		t.Errorf("SAL at 3 = %v, %v", v, ok)
	}
	if v, ok := john.At("SAL", 7); !ok || v.AsInt() != 34000 {
		t.Errorf("SAL at 7 = %v, %v", v, ok)
	}
	if _, ok := john.At("SAL", 50); ok {
		t.Error("SAL outside lifespan must be undefined")
	}
	if _, ok := john.At("NOPE", 3); ok {
		t.Error("unknown attribute is undefined")
	}
}

func TestTupleMergable(t *testing.T) {
	s := empScheme()
	early := NewTupleBuilder(s, ls("{[0,4]}")).
		Key("NAME", value.String_("Ed")).
		Set("SAL", 0, 4, value.Int(10)).
		MustBuild()
	late := NewTupleBuilder(s, ls("{[8,12]}")).
		Key("NAME", value.String_("Ed")).
		Set("SAL", 8, 12, value.Int(20)).
		MustBuild()
	if !early.Mergable(late, s) {
		t.Error("disjoint lifespans, same key: mergable")
	}
	m, err := early.Merge(late)
	mustHold(t, err)
	if !m.Lifespan().Equal(ls("{[0,4],[8,12]}")) {
		t.Errorf("merged lifespan = %v", m.Lifespan())
	}
	if v, _ := m.At("SAL", 2); v.AsInt() != 10 {
		t.Error("early value lost")
	}
	if v, _ := m.At("SAL", 10); v.AsInt() != 20 {
		t.Error("late value lost")
	}
	// Different key: not mergable.
	other := NewTupleBuilder(s, ls("{[8,12]}")).
		Key("NAME", value.String_("Sue")).
		Set("SAL", 8, 12, value.Int(20)).
		MustBuild()
	if early.Mergable(other, s) {
		t.Error("different keys are never mergable (condition 2)")
	}
	// Overlap with contradiction: not mergable.
	clash := NewTupleBuilder(s, ls("{[2,6]}")).
		Key("NAME", value.String_("Ed")).
		Set("SAL", 2, 6, value.Int(99)).
		MustBuild()
	if early.Mergable(clash, s) {
		t.Error("contradicting overlap violates condition 3")
	}
	// Overlap with agreement: mergable.
	agree := NewTupleBuilder(s, ls("{[2,6]}")).
		Key("NAME", value.String_("Ed")).
		Set("SAL", 2, 4, value.Int(10)).
		Set("SAL", 5, 6, value.Int(15)).
		MustBuild()
	if !early.Mergable(agree, s) {
		t.Error("agreeing overlap is mergable")
	}
}

func TestTupleEqual(t *testing.T) {
	s := empScheme()
	mk := func(sal int64) *Tuple {
		return NewTupleBuilder(s, ls("{[0,4]}")).
			Key("NAME", value.String_("Ed")).
			Set("SAL", 0, 4, value.Int(sal)).
			MustBuild()
	}
	if !mk(10).Equal(mk(10)) {
		t.Error("identical tuples must be equal")
	}
	if mk(10).Equal(mk(11)) {
		t.Error("different values must differ")
	}
	longer := NewTupleBuilder(s, ls("{[0,5]}")).
		Key("NAME", value.String_("Ed")).
		Set("SAL", 0, 5, value.Int(10)).
		MustBuild()
	if mk(10).Equal(longer) {
		t.Error("different lifespans must differ")
	}
}

func TestRelationKeyCondition(t *testing.T) {
	r := empRelation(t)
	s := r.Scheme()
	dup := NewTupleBuilder(s, ls("{[50,60]}")).
		Key("NAME", value.String_("John")).
		Set("SAL", 50, 60, value.Int(1)).
		MustBuild()
	if err := r.Insert(dup); err == nil {
		t.Error("duplicate key across any times must be rejected")
	}
	// InsertMerging merges instead.
	if err := r.InsertMerging(dup); err != nil {
		t.Errorf("InsertMerging of disjoint extension should merge: %v", err)
	}
	john, _ := r.Lookup(`"John"`)
	if !john.Lifespan().Equal(ls("{[0,9],[50,60]}")) {
		t.Errorf("merged John lifespan = %v", john.Lifespan())
	}
	// Contradicting InsertMerging fails.
	clash := NewTupleBuilder(s, ls("{[0,2]}")).
		Key("NAME", value.String_("John")).
		Set("SAL", 0, 2, value.Int(77)).
		MustBuild()
	if err := r.InsertMerging(clash); err == nil {
		t.Error("contradicting history must be rejected")
	}
}

func TestRelationLifespanAndWhen(t *testing.T) {
	r := empRelation(t)
	// LS(r) = union of tuple lifespans = [0,19].
	want := ls("{[0,19]}")
	if !r.Lifespan().Equal(want) {
		t.Errorf("LS(r) = %v, want %v", r.Lifespan(), want)
	}
	if !When(r).Equal(want) {
		t.Errorf("Ω(r) = %v, want %v", When(r), want)
	}
	if !When(NewRelation(r.Scheme())).IsEmpty() {
		t.Error("Ω(∅) = ∅")
	}
}

func TestRelationEqualAndString(t *testing.T) {
	a := empRelation(t)
	b := empRelation(t)
	if !a.Equal(b) {
		t.Error("identically built relations must be equal")
	}
	// Insertion order must not matter.
	c := NewRelation(a.Scheme())
	tuples := a.Tuples()
	for i := len(tuples) - 1; i >= 0; i-- {
		c.MustInsert(tuples[i])
	}
	if !a.Equal(c) {
		t.Error("relation equality must ignore insertion order")
	}
	out := a.String()
	for _, frag := range []string{"EMP(", `"John"`, `"Mary"`, `"Ahmed"`, "30000"} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() missing %q:\n%s", frag, out)
		}
	}
}

func TestLookup(t *testing.T) {
	r := empRelation(t)
	if _, ok := r.Lookup(`"John"`); !ok {
		t.Error("Lookup John failed")
	}
	if _, ok := r.Lookup(`"Nobody"`); ok {
		t.Error("Lookup of absent key must miss")
	}
}

func TestRename(t *testing.T) {
	r := empRelation(t)
	rn, err := r.Rename("e")
	mustHold(t, err)
	if !rn.Scheme().HasAttr("e.NAME") || rn.Scheme().HasAttr("NAME") {
		t.Errorf("renamed attrs = %v", rn.Scheme().AttrNames())
	}
	if rn.Cardinality() != r.Cardinality() {
		t.Error("rename must preserve cardinality")
	}
	john, ok := rn.Lookup(`"John"`)
	if !ok {
		t.Fatal("renamed John lost")
	}
	if v, _ := john.At("e.SAL", 3); v.AsInt() != 30000 {
		t.Error("renamed values lost")
	}
}

func TestTupleBuilderErrors(t *testing.T) {
	s := empScheme()
	if _, err := NewTupleBuilder(s, ls("{[0,4]}")).Key("NOPE", value.Int(1)).Build(); err == nil {
		t.Error("unknown attribute in builder must fail at Build")
	}
	// Set outside the tuple lifespan is a construction error.
	if _, err := NewTupleBuilder(s, ls("{[0,4]}")).
		Key("NAME", value.String_("X")).
		Set("SAL", 0, 50, value.Int(1)).Build(); err == nil {
		t.Error("value beyond lifespan must fail")
	}
}

// tupleSink keeps allocation-measured tuples alive past the compiler.
var tupleSink *Tuple

// TestRestrictSharesCoveredTuple checks t|L = t when L ⊇ t.l: the same
// pointer, and no allocation.
func TestRestrictSharesCoveredTuple(t *testing.T) {
	r := empRelation(t)
	for _, tp := range r.Tuples() {
		for _, L := range []lifespan.Lifespan{lifespan.All(), tp.l, tp.l.Union(ls("{[100,200]}"))} {
			if got := tp.Restrict(L); got != tp {
				t.Errorf("%v|%v is a new tuple %v", tp, L, got)
			}
			if n := testing.AllocsPerRun(100, func() { tupleSink = tp.Restrict(L) }); n != 0 {
				t.Errorf("%v|%v: %.0f allocations, want 0", tp, L, n)
			}
		}
	}
}

// TestNewTupleChecksAllocateNothing checks that NewTuple allocates only
// the tuple: every structural check is free.
func TestNewTupleChecksAllocateNothing(t *testing.T) {
	for _, tp := range empRelation(t).Tuples() {
		s, vals := empScheme(), tp.v
		base := testing.AllocsPerRun(100, func() {
			tupleSink = &Tuple{l: tp.l, s: s, v: vals}
		})
		n := testing.AllocsPerRun(100, func() {
			var err error
			if tupleSink, err = NewTuple(s, tp.l, vals); err != nil {
				t.Fatal(err)
			}
		})
		if n != base {
			t.Errorf("NewTuple(%v): %.0f allocations, want %.0f (the tuple)", tp, n, base)
		}
	}
}

// TestRelationLifespanMatchesUnionFold checks LS(r), gathered and
// canonicalized once, against the fold of pairwise unions it replaced.
func TestRelationLifespanMatchesUnionFold(t *testing.T) {
	for seed := int64(0); seed < lawTrials; seed++ {
		r := genHist(seed, int(seed%9))
		fold := lifespan.Empty()
		for _, tp := range r.Tuples() {
			fold = fold.Union(tp.l)
		}
		if got := r.Lifespan(); !got.Equal(fold) || got.String() != fold.String() {
			t.Errorf("seed %d: LS(r) = %v, fold of unions = %v", seed, got, fold)
		}
	}
}
