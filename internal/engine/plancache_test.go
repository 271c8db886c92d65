package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
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

// TestCachedPlanSurvivesResync pins what a cached plan may and may not
// outlive. It holds no index object, so it stays cached and correct
// across writes, across resetIndexes (the cached index sets dropped,
// every index rebuilt from the next pin) — each execution fetches the
// indexes of its pin — and across
// any growth, which each run prices at its pin. It is never served to a
// store that resolves its names to other relations (the CLI's \load).
func TestCachedPlanSurvivesResync(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 91)
	emp, _ := st.Get("EMP")
	ref, _ := st.Get("REF")
	// An attribute-index select, an interval-index time-slice, a
	// value-range select, and a join probing REF's attribute index.
	queries := []string{
		`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		`TIMESLICE EMP AT {[10,30]}`,
		`SELECT WHEN SAL > 40000 FROM EMP`,
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

	resetIndexes(emp)
	resetIndexes(ref)
	write("after-reset")
	run("after resetIndexes", st, true)

	for i := emp.Cardinality(); i >= 0; i-- {
		write(fmt.Sprintf("grow%04d", i))
	}
	run("after EMP more than doubled", st, true)

	run("another store under the same names", testStore(t, 92), false)
}

// TestCachedJoinStreamsThePinnedSmallerSide grows REF past EMP under a
// cached key-to-key join of the two. Each side's probe finds one tuple,
// so the run streams the relation with fewer pinned tuples: REF before
// the growth, EMP after it. The plan stays cached — the run after the
// growth is a hit — EXPLAIN names the side now streamed, and the
// result equals the naive evaluator's.
func TestCachedJoinStreamsThePinnedSmallerSide(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 91)
	emp, _ := st.Get("EMP")
	ref, _ := st.Get("REF")
	const q = `EMP JOIN REF ON NAME = RNAME`
	streams := func(want string) {
		t.Helper()
		out, err := sess(st).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, " streaming "+want+" (") {
			t.Fatalf("explain should stream %s:\n%s", want, out)
		}
	}
	compareQuery(t, st, q)
	streams("REF")
	full := lifespan.Interval(0, 199)
	for i := 0; ref.Cardinality() <= emp.Cardinality(); i++ {
		// Names emp0000… resolve to employees, like half of REF's own.
		b := core.NewTupleBuilder(ref.Scheme(), full)
		b.Key("RNAME", value.String_(fmt.Sprintf("emp%04d", i)))
		b.Set("BONUS", 0, 199, value.Int(500))
		b.SetConst("GRP", value.String_("A"))
		if err := ref.Insert(b.MustBuild()); err != nil {
			continue // a name REF already holds
		}
	}
	h0, m0, _ := PlanCacheStats()
	compareQuery(t, st, q)
	if h1, m1, _ := PlanCacheStats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("after REF outgrew EMP: hits +%d misses +%d, want a hit", h1-h0, m1-m0)
	}
	streams("EMP")
}

// TestExplainDependsOnTextAndPin: EXPLAIN renders the plan against its
// pin alone, so what earlier statements built — here the attribute
// indexes the first EXPLAIN of a join prices its sides with — changes
// nothing in the next one.
func TestExplainDependsOnTextAndPin(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 5)
	const q = `EMP JOIN REF ON DEPT = GRP`
	first, err := sess(st).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	ResetPlanCache()
	second, err := sess(st).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two EXPLAINs of one text against one store differ:\n%s\n---\n%s", first, second)
	}
}

// TestLawShapeOnePlanEveryWindow checks that a law-3 shape, a static
// slice over a σ-WHEN, is one plan for every window: its narrow and
// wide windows cost the shape's one miss between them, every later
// window hits, the plan is the σ-WHEN with the window folded into its
// DURING (one index-select, whose probe the pin chooses), and every run
// matches the naive evaluator.
func TestLawShapeOnePlanEveryWindow(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 2000, HistoryLen: 200, ChangeEvery: 20, ReincarnationProb: 0.3, Seed: 1,
	}))
	const q = `TIMESLICE (SELECT WHEN DEPT = 'Toys' FROM EMP) AT %s`
	for i, window := range []string{"{[10,14]}", "{[0,199]}", "{[60,66]}", "{[5,190]}", "{[10,14]}"} {
		h0, m0, _ := PlanCacheStats()
		compareQuery(t, st, fmt.Sprintf(q, window))
		h1, m1, _ := PlanCacheStats()
		if hit := h1 == h0+1 && m1 == m0; hit != (i > 0) {
			t.Fatalf("window %s: hits +%d misses +%d, want hit=%v", window, h1-h0, m1-m0, i > 0)
		}
	}
	planCache.mu.Lock()
	entries, ent := planCache.lru.Len(), planCache.lru.Front().Value.(*cacheEntry)
	planCache.mu.Unlock()
	if entries != 1 {
		t.Fatalf("%d cached shapes, want the one", entries)
	}
	if _, ok := ent.plan.root.(*indexSelectNode); !ok {
		t.Errorf("law-3 plan is %T, want an index-select with the window in its DURING", ent.plan.root)
	}
}
