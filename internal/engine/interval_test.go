package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// naiveOverlapping is the O(n) reference the index must agree with:
// r's tuples overlapping L, in key order.
func naiveOverlapping(r *core.Relation, L lifespan.Lifespan) []*core.Tuple {
	_, vers := core.Pin(r)
	ts, err := vers[0].KeyOrdered()
	if err != nil {
		panic(err)
	}
	var out []*core.Tuple
	for _, t := range ts {
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
	entries := 0
	for _, o := range v.Tuples() {
		entries += o.Lifespan().NumIntervals()
	}
	if ix := newIntervalIndexFrom(v.Tuples()); len(ix.es) != entries {
		t.Fatalf("indexed %d intervals, want %d", len(ix.es), entries)
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
// an index built past the pin: after a merge extends an old tuple's
// lifespan into the window and a fresh tuple is born inside it, a probe
// through a newer pin builds the newer version's index. A probe through
// the old pin then builds nothing — it reuses the newer index — and
// returns only pinned tuples, in pinned order, and every one whose
// pinned lifespan overlaps the window.
func TestOverlappingAnswersAtThePin(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 40, HistoryLen: 200, ChangeEvery: 10, ReincarnationProb: 0.5, Seed: 23,
	})
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
	_, now := core.Pin(r)
	b0 := idxMetrics.intervalBuilds.Load()
	if _, ok := overlapping(now[0], L, math.MaxInt); !ok {
		t.Fatal("probe through the newer pin declined an unlimited budget")
	}
	if got := idxMetrics.intervalBuilds.Load() - b0; got != 1 {
		t.Fatalf("a probe through the newer pin built %d interval indexes, want 1", got)
	}
	got, ok := overlapping(v, L, len(v.Tuples()))
	if !ok {
		t.Fatal("probe declined an unlimited budget")
	}
	if n := idxMetrics.intervalBuilds.Load() - b0; n != 1 {
		t.Fatalf("a probe through the old pin built %d interval indexes, want 0", n-1)
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

// FuzzIntervalIndex builds an index over a random set of tuples, some
// with gapped lifespans, and probes it with random lifespans and
// budgets. The answer must be the positions of the tuples overlapping L
// whenever the matching entries fit the budget, and a decline exactly
// when they do not.
func FuzzIntervalIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(2), slices.Repeat([]byte{2, 6, 3, 10}, 40))
	f.Add(int64(3), slices.Repeat([]byte{3, 7, 11}, 60))
	full := lifespan.Interval(0, 1100)
	s := schema.MustNew("I", []string{"K"}, schema.Attribute{Name: "K", Domain: value.Ints, Lifespan: full})
	f.Fuzz(func(t *testing.T, seed int64, probes []byte) {
		probes = probes[:min(len(probes), 200)]
		rng := rand.New(rand.NewSource(seed))
		span := func() lifespan.Lifespan {
			lo := chronon.Time(rng.Intn(1000))
			L := lifespan.Interval(lo, lo+chronon.Time(rng.Intn(60)))
			if rng.Intn(3) == 0 { // a reincarnation
				lo2 := lo + 61 + chronon.Time(rng.Intn(30))
				L = L.Union(lifespan.Interval(lo2, lo2+chronon.Time(rng.Intn(10))))
			}
			return L
		}
		ts := make([]*core.Tuple, rng.Intn(1000))
		for i := range ts {
			ts[i] = core.NewTupleBuilder(s, span()).Key("K", value.Int(int64(i))).MustBuild()
		}
		ix := newIntervalIndexFrom(ts)
		for n, b := range probes {
			L := span()
			var want []int
			matches := 0
			for pos, o := range ts {
				ls := o.Lifespan()
				if ls.Overlaps(L) {
					want = append(want, pos)
				}
				for i := range L.NumIntervals() {
					for j := range ls.NumIntervals() {
						if q, e := L.IntervalAt(i), ls.IntervalAt(j); q.Lo <= e.Hi && e.Lo <= q.Hi {
							matches++
						}
					}
				}
			}
			budget := math.MaxInt
			if b%2 == 0 {
				budget = rng.Intn(matches + 2)
			}
			es, ok := ix.hits(L, budget)
			if ok != (matches <= budget) {
				t.Fatalf("probe %d: L=%s, %d matching entries, budget %d: ok=%v", n, L, matches, budget, ok)
			}
			if !ok {
				continue
			}
			got := make([]int, len(es))
			for i, e := range es {
				got[i] = int(e)
			}
			slices.Sort(got)
			if got = slices.Compact(got); !slices.Equal(got, want) {
				t.Fatalf("probe %d: L=%s: index found positions %v, scan %v", n, L, got, want)
			}
		}
	})
}
