package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// swapStore builds a store with relations A and B holding one tuple
// each; sal differentiates generations of the same relation name.
func swapStore(t *testing.T, names []string, sal int64) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	full := lifespan.Interval(0, 99)
	for _, name := range names {
		s := schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
		r := core.NewRelation(s)
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("K", value.String_("x")).
			Set("SAL", 0, 9, value.Int(sal)).
			MustBuild())
		st.Put(r)
	}
	return st
}

// TestInvalidateStalePlansOnSwap is the regression test for the CLI's
// store-swap path: a plan cached against the old store must not serve
// results after the environment swaps to a new store with the same
// relation names — and, unlike the old wholesale cache reset, entries
// whose relations survived the swap must stay warm.
func TestInvalidateStalePlansOnSwap(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()

	st1 := swapStore(t, []string{"A", "B"}, 100)
	q := `SELECT WHEN SAL = 200 FROM A`
	res, err := sess(st1).Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 0 {
		t.Fatalf("old store: SAL=200 matched %d tuples, want 0", res.Relation.Cardinality())
	}

	// Swap: same names, different data (SAL=200 everywhere), keeping
	// st1's B relation object so one cached plan stays valid.
	st2 := swapStore(t, []string{"A"}, 200)
	b1, _ := st1.Get("B")
	st2.Put(b1)
	qb := `SELECT WHEN SAL = 100 FROM B`
	if _, err := sess(st1).Query(bg, qb); err != nil { // cache a plan that survives
		t.Fatal(err)
	}

	dropped := InvalidateStalePlans(st2)
	if dropped == 0 {
		t.Fatal("swap invalidation dropped nothing; the A-plan pins the old store")
	}

	// The stale-plan read: the swapped store's A has SAL=200.
	res, err = sess(st2).Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Cardinality(); got != 1 {
		t.Fatalf("stale plan served after swap: SAL=200 matched %d tuples, want 1", got)
	}

	// The B-plan survived the swap and hits.
	h0, _, _ := PlanCacheStats()
	if _, err := sess(st2).Query(bg, qb); err != nil {
		t.Fatal(err)
	}
	if h1, _, _ := PlanCacheStats(); h1 != h0+1 {
		t.Fatalf("surviving relation's plan did not hit after swap (hits %d -> %d)", h0, h1)
	}
}

// TestCachedPlanSurvivesResyncAndEviction pins what a cached plan may
// and may not outlive. It holds no index object, so it stays cached and
// correct across writes, across invalidateIndexes (every index rebuilt
// from scratch) and across the catalog evicting its relation
// (maxCatalog) — each execution fetches the indexes it probes. It is
// replanned once a dependency outgrows staleGrowth times its costing,
// and never served to a store that resolves its names to other
// relations (the CLI's \load).
func TestCachedPlanSurvivesResyncAndEviction(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 91)
	emp, _ := st.Get("EMP")
	ref, _ := st.Get("REF")
	// An attribute-index select, an interval-index time-slice, and a
	// join probing REF's attribute index.
	queries := []string{
		`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		`TIMESLICE EMP AT {[10,30]}`,
		`EMP JOIN REF ON DEPT = GRP`,
	}
	run := func(when string, st *storage.Store, wantHit bool) {
		t.Helper()
		for _, q := range queries {
			h0, m0, _ := PlanCacheStats()
			compareQuery(t, st, q)
			h1, m1, _ := PlanCacheStats()
			if hit := h1 == h0+1 && m1 == m0; hit != wantHit {
				t.Fatalf("%s: %q: hits +%d misses +%d, want hit=%v", when, q, h1-h0, m1-m0, wantHit)
			}
		}
	}
	write := func(name string) {
		t.Helper()
		if err := emp.Insert(empTuple(emp.Scheme(), name, 5, 40, 31000, "Toys")); err != nil {
			t.Fatal(err)
		}
	}
	run("cold", st, false)
	run("warm", st, true)

	write("after-warm")
	run("after a write", st, true)

	invalidateIndexes(emp)
	invalidateIndexes(ref)
	write("after-invalidate")
	run("after invalidateIndexes", st, true)

	evicted := func() bool {
		catalog.mu.Lock()
		defer catalog.mu.Unlock()
		_, ok := catalog.rels[emp]
		return !ok
	}
	for i := 0; !evicted(); i++ {
		if i > 1000*maxCatalog {
			t.Fatal("catalog never evicted EMP")
		}
		Indexes(core.NewRelation(emp.Scheme()))
	}
	write("after-evict")
	run("after the catalog evicted EMP", st, true)

	for i := emp.Cardinality(); i >= 0; i-- {
		write(fmt.Sprintf("grow%04d", i))
	}
	run("after EMP more than doubled", st, false)
	run("replanned", st, true)

	run("another store under the same names", testStore(t, 92), false)
}
