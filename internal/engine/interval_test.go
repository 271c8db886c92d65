package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/workload"
)

// naiveOverlapping is the O(n) reference the index must agree with.
func naiveOverlapping(r *core.Relation, L lifespan.Lifespan) []*core.Tuple {
	var out []*core.Tuple
	for _, t := range r.Tuples() {
		if t.Lifespan().Overlaps(L) {
			out = append(out, t)
		}
	}
	return out
}

func TestIntervalIndexMatchesLinearScan(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 120, HistoryLen: 300, ChangeEvery: 15, ReincarnationProb: 0.5, Seed: 7,
	})
	_, vers := core.Pin(r)
	v := vers[0]
	if ix := newIntervalIndexFrom(v.Tuples()); ix.Tuples() != r.Cardinality() {
		t.Fatalf("indexed %d tuples, want %d", ix.Tuples(), r.Cardinality())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		lo := chronon.Time(rng.Intn(320) - 10)
		hi := lo + chronon.Time(rng.Intn(60))
		L := lifespan.Interval(lo, hi)
		if i%3 == 0 { // gapped query lifespans too
			lo2 := hi + 2 + chronon.Time(rng.Intn(40))
			L = L.Union(lifespan.Interval(lo2, lo2+chronon.Time(rng.Intn(20))))
		}
		want := naiveOverlapping(r, L)
		got, _ := overlapping(v, L, math.MaxInt)
		if len(got) != len(want) {
			t.Fatalf("L=%s: index found %d tuples, scan found %d", L, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("L=%s: candidate %d differs (order or identity)", L, j)
			}
		}
		// Every match costs at least one entry, so a budget below the
		// answer's size is declined.
		if _, ok := overlapping(v, L, len(want)-1); ok && len(want) > 0 {
			t.Fatalf("L=%s: %d matches fit a budget of %d", L, len(want), len(want)-1)
		}
	}
}

func TestIntervalIndexPointAndEmpty(t *testing.T) {
	r := workload.Personnel(workload.DefaultPersonnel())
	_, vers := core.Pin(r)
	if got, _ := overlapping(vers[0], lifespan.Empty(), math.MaxInt); len(got) != 0 {
		t.Fatalf("empty lifespan should match nothing, got %d", len(got))
	}
	for _, s := range []chronon.Time{0, 50, 199, 500, -3} {
		want := naiveOverlapping(r, lifespan.Point(s))
		got, _ := overlapping(vers[0], lifespan.Point(s), math.MaxInt)
		if len(got) != len(want) {
			t.Fatalf("alive at %d: %d tuples, want %d", s, len(got), len(want))
		}
	}
}

func TestIntervalIndexEmptyRelation(t *testing.T) {
	r := core.NewRelation(workload.PersonnelScheme(10))
	_, vers := core.Pin(r)
	if got, _ := overlapping(vers[0], lifespan.All(), math.MaxInt); len(got) != 0 {
		t.Fatalf("empty relation should match nothing, got %d", len(got))
	}
}

// TestOverlappingAnswersAtThePin drives the pinned interval probe with
// the live index past the pin: after a merge extends an old tuple's
// lifespan into the window and a fresh tuple is born inside it, the
// probe through the old pin returns only pinned tuples, in pinned
// order, and every one whose pinned lifespan overlaps the window.
func TestOverlappingAnswersAtThePin(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 40, HistoryLen: 200, ChangeEvery: 10, ReincarnationProb: 0.5, Seed: 23,
	})
	Indexes(r).Interval()
	_, vers := core.Pin(r)
	v := vers[0]
	L := lifespan.Interval(60, 70)
	var outside *core.Tuple
	for _, o := range v.Tuples() {
		if !o.Lifespan().Overlaps(L) {
			outside = o
		}
	}
	if outside == nil {
		t.Fatal("fixture has no tuple outside the window")
	}
	if err := r.InsertMerging(empTuple(r.Scheme(), outside.KeyValue("NAME").AsString(), 62, 64, 1, "X")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(empTuple(r.Scheme(), "newcomer", 60, 70, 1, "X")); err != nil {
		t.Fatal(err)
	}
	got, ok := overlapping(v, L, len(v.Tuples()))
	if !ok {
		t.Fatal("probe declined an unlimited budget")
	}
	pos := map[*core.Tuple]int{}
	for i, o := range v.Tuples() {
		pos[o] = i
	}
	last, found := -1, map[*core.Tuple]bool{}
	for _, o := range got {
		p, pinned := pos[o]
		if !pinned || p <= last {
			t.Fatalf("candidate %s is not a pinned tuple in pinned order", o)
		}
		last, found[o] = p, true
	}
	for _, o := range v.Tuples() {
		if o.Lifespan().Overlaps(L) && !found[o] {
			t.Fatalf("pinned tuple %s overlaps %s but was not a candidate", o, L)
		}
	}
	if _, ok := overlapping(v, L, 0); ok {
		t.Fatal("probe ignored its budget")
	}
}
