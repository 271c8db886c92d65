package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file property-checks the algebraic laws the paper claims carry
// over to the historical algebra (Section 5): commutativity of select,
// distribution of select over the binary set-theoretic operators,
// commutativity of TIME-SLICE with both flavors of SELECT, distribution
// of TIME-SLICE over the set operators, and commutativity of the natural
// join (tested in join_test.go on fixtures, here on random instances).

// genHist builds a random historical relation on the shared EMP-like
// scheme: up to n objects, each with a possibly gapped lifespan inside
// [0,29] and step-valued SAL/DEPT histories.
func genHist(seed int64, n int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	s := empScheme()
	r := NewRelation(s)
	for i := 0; i < n; i++ {
		// Lifespan: one or two intervals in [0,29].
		lo := chronon.Time(rng.Intn(15))
		hi := lo + chronon.Time(rng.Intn(8))
		ls := lifespan.Interval(lo, hi)
		if rng.Intn(2) == 0 {
			lo2 := hi + 2 + chronon.Time(rng.Intn(5))
			ls = ls.Union(lifespan.Interval(lo2, lo2+chronon.Time(rng.Intn(6))))
		}
		b := NewTupleBuilder(s, ls)
		b.Key("NAME", value.String_(fmt.Sprintf("emp%d", i)))
		// Piecewise SAL and DEPT over the lifespan intervals.
		for _, iv := range ls.Intervals() {
			t := iv.Lo
			for t <= iv.Hi {
				seg := chronon.Time(rng.Intn(4)) + 1
				end := t + seg - 1
				if end > iv.Hi {
					end = iv.Hi
				}
				b.Set("SAL", t, end, value.Int(int64(28000+1000*rng.Intn(5))))
				b.Set("DEPT", t, end, value.String_([]string{"Toys", "Shoes", "Books"}[rng.Intn(3)]))
				t = end + 1
			}
		}
		r.MustInsert(b.MustBuild())
	}
	return r
}

// genHistPair builds two merge-compatible random relations whose shared
// objects carry identical values on overlapping times (so merge variants
// are defined): both are slices of one "world" relation.
func genHistPair(seed int64) (*Relation, *Relation) {
	world := genHist(seed, 6)
	cutLo := chronon.Time(seed % 12)
	a, err := TimesliceStatic(world, lifespan.Interval(0, cutLo+8))
	if err != nil {
		panic(err)
	}
	b, err := TimesliceStatic(world, lifespan.Interval(cutLo+4, 29))
	if err != nil {
		panic(err)
	}
	return a, b
}

func randomPredicate(seed int64) Predicate {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	if rng.Intn(3) == 0 {
		return Predicate{Attr: "DEPT", Theta: value.EQ,
			Const: value.String_([]string{"Toys", "Shoes", "Books"}[rng.Intn(3)])}
	}
	ths := []value.Theta{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	return Predicate{Attr: "SAL", Theta: ths[rng.Intn(len(ths))],
		Const: value.Int(int64(28000 + 1000*rng.Intn(5)))}
}

func randomLS(seed int64) lifespan.Lifespan {
	rng := rand.New(rand.NewSource(seed ^ 0x51ab))
	lo := chronon.Time(rng.Intn(20))
	l := lifespan.Interval(lo, lo+chronon.Time(rng.Intn(10)))
	if rng.Intn(2) == 0 {
		lo2 := chronon.Time(rng.Intn(25))
		l = l.Union(lifespan.Interval(lo2, lo2+chronon.Time(rng.Intn(5))))
	}
	return l
}

const lawTrials = 60

func TestLawSelectWhenCommutes(t *testing.T) {
	// σ-WHEN_p1 ∘ σ-WHEN_p2 = σ-WHEN_p2 ∘ σ-WHEN_p1.
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		p1, p2 := randomPredicate(i), randomPredicate(i+1000)
		a1, err := SelectWhen(r, p1, lifespan.All())
		mustHold(t, err)
		a, err := SelectWhen(a1, p2, lifespan.All())
		mustHold(t, err)
		b1, err := SelectWhen(r, p2, lifespan.All())
		mustHold(t, err)
		b, err := SelectWhen(b1, p1, lifespan.All())
		mustHold(t, err)
		if !a.Equal(b) {
			t.Fatalf("seed %d: select-when does not commute for %s, %s:\n%s\nvs\n%s", i, p1, p2, a, b)
		}
	}
}

func TestLawSelectIfCommutes(t *testing.T) {
	// σ-IF_p1 ∘ σ-IF_p2 = σ-IF_p2 ∘ σ-IF_p1 (tuples are kept whole, so
	// the two filters commute for both quantifiers).
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		p1, p2 := randomPredicate(i), randomPredicate(i+1000)
		for _, q := range []Quantifier{Exists, ForAll} {
			a1, err := SelectIf(r, p1, q, lifespan.All())
			mustHold(t, err)
			a, err := SelectIf(a1, p2, q, lifespan.All())
			mustHold(t, err)
			b1, err := SelectIf(r, p2, q, lifespan.All())
			mustHold(t, err)
			b, err := SelectIf(b1, p1, q, lifespan.All())
			mustHold(t, err)
			if !a.Equal(b) {
				t.Fatalf("seed %d q=%v: select-if does not commute", i, q)
			}
		}
	}
}

func TestLawTimesliceCommutesWithSelect(t *testing.T) {
	// T_L ∘ σ-WHEN_p = σ-WHEN_p ∘ T_L: restricting then filtering equals
	// filtering then restricting, because σ-WHEN works pointwise. For the
	// same reason a window on either side folds into σ-WHEN's DURING:
	// T_L(σ-WHEN_p DURING D (r)) = σ-WHEN_p DURING D∩L (r) =
	// σ-WHEN_p DURING D (T_L(r)). The engine's planner lowers a slice of a
	// σ-WHEN, and a σ-WHEN of a slice, as that one σ-WHEN DURING D∩L.
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		p := randomPredicate(i)
		L, D := randomLS(i), randomLS(i+700)
		a1, err := TimesliceStatic(r, L)
		mustHold(t, err)
		a, err := SelectWhen(a1, p, lifespan.All())
		mustHold(t, err)
		b1, err := SelectWhen(r, p, lifespan.All())
		mustHold(t, err)
		b, err := TimesliceStatic(b1, L)
		mustHold(t, err)
		if !a.Equal(b) {
			t.Fatalf("seed %d: T_L does not commute with σ-WHEN_%s:\n%s\nvs\n%s", i, p, a, b)
		}

		folded, err := SelectWhen(r, p, D.Intersect(L))
		mustHold(t, err)
		c1, err := SelectWhen(r, p, D)
		mustHold(t, err)
		sliceOfSelect, err := TimesliceStatic(c1, L)
		mustHold(t, err)
		selectOfSlice, err := SelectWhen(a1, p, D)
		mustHold(t, err)
		for _, side := range []struct {
			name string
			rel  *Relation
		}{{"T_L(σ-WHEN DURING D)", sliceOfSelect}, {"σ-WHEN DURING D (T_L)", selectOfSlice}} {
			if !side.rel.Equal(folded) || side.rel.String() != folded.String() {
				t.Fatalf("seed %d: %s is not σ-WHEN_%s DURING D∩L:\n%s\nvs\n%s", i, side.name, p, side.rel, folded)
			}
		}
	}
}

// TestNotALawSliceFoldsIntoSelectIf is the negative control of the
// fold above: σ-IF keeps each qualifying tuple whole, so T_L(σ-IF_p
// DURING D (r)) keeps only L of it while σ-IF_p DURING D∩L (r) keeps
// all of it, and σ-IF_p DURING D (T_L(r)) quantifies over the sliced
// tuple. Some seed must tell each apart from the fold, which is why the
// planner slices a σ-IF as written.
func TestNotALawSliceFoldsIntoSelectIf(t *testing.T) {
	var sliceOfSelect, selectOfSlice bool
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		p := randomPredicate(i)
		L, D := randomLS(i), randomLS(i+700)
		folded, err := SelectIf(r, p, Exists, D.Intersect(L))
		mustHold(t, err)
		c1, err := SelectIf(r, p, Exists, D)
		mustHold(t, err)
		a, err := TimesliceStatic(c1, L)
		mustHold(t, err)
		a1, err := TimesliceStatic(r, L)
		mustHold(t, err)
		b, err := SelectIf(a1, p, Exists, D)
		mustHold(t, err)
		sliceOfSelect = sliceOfSelect || !a.Equal(folded) || a.String() != folded.String()
		selectOfSlice = selectOfSlice || !b.Equal(folded) || b.String() != folded.String()
	}
	if !sliceOfSelect || !selectOfSlice {
		t.Fatalf("σ-IF folded like σ-WHEN on every seed (slice of select differs: %v, select of slice differs: %v)", sliceOfSelect, selectOfSlice)
	}
}

func TestLawTimesliceDistributesOverSetOps(t *testing.T) {
	// T_L(r1 ∪o r2) = T_L(r1) ∪o T_L(r2), and likewise for ∩o and −o...
	// with the caveat the paper's fine print implies: for difference,
	// slicing commutes because the slice applies to both operands.
	for i := int64(0); i < lawTrials; i++ {
		r1, r2 := genHistPair(i)
		L := randomLS(i)

		u, err := UnionMerge(r1, r2)
		mustHold(t, err)
		lhs, err := TimesliceStatic(u, L)
		mustHold(t, err)
		s1, err := TimesliceStatic(r1, L)
		mustHold(t, err)
		s2, err := TimesliceStatic(r2, L)
		mustHold(t, err)
		rhs, err := UnionMerge(s1, s2)
		mustHold(t, err)
		if !lhs.Equal(rhs) {
			t.Fatalf("seed %d: T_L does not distribute over ∪o:\n%s\nvs\n%s", i, lhs, rhs)
		}

		in, err := IntersectMerge(r1, r2)
		mustHold(t, err)
		lhsI, err := TimesliceStatic(in, L)
		mustHold(t, err)
		rhsI, err := IntersectMerge(s1, s2)
		mustHold(t, err)
		if !lhsI.Equal(rhsI) {
			t.Fatalf("seed %d: T_L does not distribute over ∩o:\n%s\nvs\n%s", i, lhsI, rhsI)
		}

		d, err := DiffMerge(r1, r2)
		mustHold(t, err)
		lhsD, err := TimesliceStatic(d, L)
		mustHold(t, err)
		rhsD, err := DiffMerge(s1, s2)
		mustHold(t, err)
		if !lhsD.Equal(rhsD) {
			t.Fatalf("seed %d: T_L does not distribute over −o:\n%s\nvs\n%s", i, lhsD, rhsD)
		}
	}
}

func TestLawSelectWhenDistributesOverSetOps(t *testing.T) {
	// σ-WHEN_p(r1 ∪o r2) = σ-WHEN_p(r1) ∪o σ-WHEN_p(r2), etc.
	for i := int64(0); i < lawTrials; i++ {
		r1, r2 := genHistPair(i)
		p := randomPredicate(i)

		u, err := UnionMerge(r1, r2)
		mustHold(t, err)
		lhs, err := SelectWhen(u, p, lifespan.All())
		mustHold(t, err)
		s1, err := SelectWhen(r1, p, lifespan.All())
		mustHold(t, err)
		s2, err := SelectWhen(r2, p, lifespan.All())
		mustHold(t, err)
		rhs, err := UnionMerge(s1, s2)
		mustHold(t, err)
		if !lhs.Equal(rhs) {
			t.Fatalf("seed %d: σ-WHEN does not distribute over ∪o for %s:\n%s\nvs\n%s", i, p, lhs, rhs)
		}
	}
}

func TestLawUnionMergeCommutesAndAssociates(t *testing.T) {
	for i := int64(0); i < lawTrials; i++ {
		r1, r2 := genHistPair(i)
		ab, err := UnionMerge(r1, r2)
		mustHold(t, err)
		ba, err := UnionMerge(r2, r1)
		mustHold(t, err)
		if !ab.Equal(ba) {
			t.Fatalf("seed %d: ∪o does not commute", i)
		}
		// Associativity with a third compatible slice.
		world := genHist(i, 6)
		r3, err := TimesliceStatic(world, randomLS(i))
		mustHold(t, err)
		if r3.Cardinality() == 0 {
			continue
		}
		l1, err := UnionMerge(ab, r3)
		mustHold(t, err)
		bc, err := UnionMerge(r2, r3)
		mustHold(t, err)
		l2, err := UnionMerge(r1, bc)
		mustHold(t, err)
		if !l1.Equal(l2) {
			t.Fatalf("seed %d: ∪o does not associate", i)
		}
	}
}

func TestLawSliceRestoresViaUnionMerge(t *testing.T) {
	// Complementary slices reassemble the original: T_L(r) ∪o T_{T−L}(r) = r.
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 6)
		L := randomLS(i)
		a, err := TimesliceStatic(r, L)
		mustHold(t, err)
		b, err := TimesliceStatic(r, L.Complement())
		mustHold(t, err)
		back, err := UnionMerge(a, b)
		mustHold(t, err)
		if !back.Equal(r) {
			t.Fatalf("seed %d: complementary slices do not reassemble:\n%s\nvs\n%s", i, back, r)
		}
	}
}

func TestLawTimesliceComposition(t *testing.T) {
	// T_L1(T_L2(r)) = T_{L1 ∩ L2}(r). The engine's planner composes every
	// literal slice of a literal slice this way.
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		L1, L2 := randomLS(i), randomLS(i+500)
		a1, err := TimesliceStatic(r, L2)
		mustHold(t, err)
		a, err := TimesliceStatic(a1, L1)
		mustHold(t, err)
		b, err := TimesliceStatic(r, L1.Intersect(L2))
		mustHold(t, err)
		if !a.Equal(b) {
			t.Fatalf("seed %d: timeslice composition fails", i)
		}
	}
}

func TestLawWhenOfUnionMerge(t *testing.T) {
	// Ω(r1 ∪o r2) = Ω(r1) ∪ Ω(r2).
	for i := int64(0); i < lawTrials; i++ {
		r1, r2 := genHistPair(i)
		u, err := UnionMerge(r1, r2)
		mustHold(t, err)
		if !When(u).Equal(When(r1).Union(When(r2))) {
			t.Fatalf("seed %d: Ω does not distribute over ∪o", i)
		}
	}
}

func TestLawProjectCommutesWithTimeslice(t *testing.T) {
	// π_X(T_L(r)) = T_L(π_X(r)) when X retains the key.
	for i := int64(0); i < lawTrials; i++ {
		r := genHist(i, 5)
		L := randomLS(i)
		a1, err := TimesliceStatic(r, L)
		mustHold(t, err)
		a, err := Project(a1, "NAME", "SAL")
		mustHold(t, err)
		b1, err := Project(r, "NAME", "SAL")
		mustHold(t, err)
		b, err := TimesliceStatic(b1, L)
		mustHold(t, err)
		if !a.Equal(b) {
			t.Fatalf("seed %d: π does not commute with T_L", i)
		}
	}
}

func TestLawNaturalJoinCommutesRandom(t *testing.T) {
	// Natural join commutativity on random histories sharing DEPT.
	full := lifespan.Interval(0, 99)
	ds := schema.MustNew("D", []string{"DEPT"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: full},
	)
	for i := int64(0); i < 30; i++ {
		rng := rand.New(rand.NewSource(i))
		emp := genHist(i, 4)
		d := NewRelation(ds)
		for _, name := range []string{"Toys", "Shoes", "Books"} {
			lo := chronon.Time(rng.Intn(10))
			d.MustInsert(NewTupleBuilder(ds, lifespan.Interval(lo, lo+chronon.Time(5+rng.Intn(15)))).
				Key("DEPT", value.String_(name)).
				SetConst("FLOOR", value.Int(int64(rng.Intn(5)))).
				MustBuild())
		}
		ab, err := NaturalJoin(emp, d)
		mustHold(t, err)
		ba, err := NaturalJoin(d, emp)
		mustHold(t, err)
		if !ab.Equal(ba) {
			t.Fatalf("seed %d: natural join does not commute:\n%s\nvs\n%s", i, ab, ba)
		}
	}
}

// What is not a law. Selection distributes over the object-based set
// operators only in the forms checked above; in general it does not, and
// the two witnesses below pin a counterexample each on a fixed fixture.
// They are the negative controls for the differential tests, which run
// these shapes through the engine against the reference evaluator: a
// planner that pushed σ below ∪o or ∩o would answer them differently.

// TestNotALawSelectIfOverUnionMerge: σ-IF keeps or drops whole tuples,
// so below ∪o it judges each operand's fragment of an object rather
// than the merged object. Over two complementary slices of EMP, John
// and Ahmed come back whole from σ-IF(r1 ∪o r2) but cut to the
// fragments where SAL = 30000 from σ-IF(r1) ∪o σ-IF(r2).
func TestNotALawSelectIfOverUnionMerge(t *testing.T) {
	r := empRelation(t)
	r1, err := TimesliceStatic(r, ls("{[0,4]}"))
	mustHold(t, err)
	r2, err := TimesliceStatic(r, ls("{[5,99]}"))
	mustHold(t, err)
	p := Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(30000)}

	u, err := UnionMerge(r1, r2)
	mustHold(t, err)
	lhs, err := SelectIf(u, p, Exists, lifespan.All())
	mustHold(t, err)
	s1, err := SelectIf(r1, p, Exists, lifespan.All())
	mustHold(t, err)
	s2, err := SelectIf(r2, p, Exists, lifespan.All())
	mustHold(t, err)
	rhs, err := UnionMerge(s1, s2)
	mustHold(t, err)
	if lhs.Equal(rhs) {
		t.Fatalf("σ-IF(r1 ∪o r2) = σ-IF(r1) ∪o σ-IF(r2) on the witness:\n%s", lhs)
	}
}

// TestNotALawSelectWhenOverIntersectMerge: ∩o drops an object whose
// operands contradict each other, but σ-WHEN applied first can cut
// away the contradiction. John's SAL agrees on [0,9] and differs on
// [10,19]: σ-WHEN(r1 ∩o r2) is empty, σ-WHEN(r1) ∩o σ-WHEN(r2) invents
// John on [0,9].
func TestNotALawSelectWhenOverIntersectMerge(t *testing.T) {
	s := empScheme()
	john := func(sal2 int64) *Relation {
		r := NewRelation(s)
		r.MustInsert(NewTupleBuilder(s, ls("{[0,19]}")).
			Key("NAME", value.String_("John")).
			Set("SAL", 0, 9, value.Int(30000)).
			Set("SAL", 10, 19, value.Int(sal2)).
			Set("DEPT", 0, 19, value.String_("Toys")).
			MustBuild())
		return r
	}
	r1, r2 := john(30000), john(40000)
	p := Predicate{Attr: "SAL", Theta: value.EQ, Const: value.Int(30000)}

	in, err := IntersectMerge(r1, r2)
	mustHold(t, err)
	lhs, err := SelectWhen(in, p, lifespan.All())
	mustHold(t, err)
	s1, err := SelectWhen(r1, p, lifespan.All())
	mustHold(t, err)
	s2, err := SelectWhen(r2, p, lifespan.All())
	mustHold(t, err)
	rhs, err := IntersectMerge(s1, s2)
	mustHold(t, err)
	if lhs.Equal(rhs) {
		t.Fatalf("σ-WHEN(r1 ∩o r2) = σ-WHEN(r1) ∩o σ-WHEN(r2) on the witness:\n%s", lhs)
	}
}
