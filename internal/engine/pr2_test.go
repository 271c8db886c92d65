package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// empTuple builds a fresh personnel tuple on r's scheme.
func empTuple(rs *schema.Scheme, name string, lo, hi int, sal int64, dept string) *core.Tuple {
	clo, chi := chronon.Time(lo), chronon.Time(hi)
	return core.NewTupleBuilder(rs, lifespan.Interval(clo, chi)).
		Key("NAME", value.String_(name)).
		Set("SAL", clo, chi, value.Int(sal)).
		Set("DEPT", clo, chi, value.String_(dept)).
		MustBuild()
}

// TestPlanCache covers the hit path (textual and structural repeats),
// cached plans surviving inserts, and environment swaps.
func TestPlanCache(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 77)
	q := `SELECT WHEN SAL > 30000 DURING {[5,60]} FROM EMP`

	res1, err := sess(st).Query(bg, q)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	h0, m0, n0 := PlanCacheStats()
	if m0 == 0 || n0 == 0 {
		t.Fatalf("cold run recorded no miss/entry (hits=%d misses=%d entries=%d)", h0, m0, n0)
	}

	res2, err := sess(st).Query(bg, q)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	h1, m1, _ := PlanCacheStats()
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("warm run: hits %d→%d misses %d→%d, want one new hit, no new miss", h0, h1, m0, m1)
	}
	if !res1.Relation.Equal(res2.Relation) {
		t.Fatal("cached result differs from cold result")
	}

	// A respaced spelling normalizes to the same source key.
	if _, err := sess(st).Query(bg, "SELECT   WHEN SAL > 30000	DURING {[5,60]}  FROM EMP"); err != nil {
		t.Fatalf("respaced run: %v", err)
	}
	h2, _, _ := PlanCacheStats()
	if h2 != h1+1 {
		t.Fatalf("respaced spelling missed the cache (hits %d→%d)", h1, h2)
	}

	// An insert into EMP moves its version but not the plan: the cached
	// plan holds no data, so it hits again and must see the new tuple.
	emp, _ := st.Get("EMP")
	if err := emp.Insert(empTuple(emp.Scheme(), "cachebuster", 10, 20, 99000, "Cache")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res3, err := sess(st).Query(bg, q)
	if err != nil {
		t.Fatalf("post-insert run: %v", err)
	}
	h3, m3, _ := PlanCacheStats()
	if h3 != h2+1 || m3 != m1 {
		t.Fatalf("post-insert run: hits %d→%d misses %d→%d, want the cached plan to survive the write", h2, h3, m1, m3)
	}
	e, _ := hql.Parse(q)
	naive, err := hql.EvalNaive(e, st)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if !res3.Relation.Equal(naive.Relation) {
		t.Fatal("post-insert cached path diverges from naive evaluator")
	}

	// A different store under the same relation names must not be served
	// the first store's plan (relation pointers differ).
	st2 := testStore(t, 78)
	res4, err := sess(st2).Query(bg, q)
	if err != nil {
		t.Fatalf("second store: %v", err)
	}
	naive2, err := hql.EvalNaive(e, st2)
	if err != nil {
		t.Fatalf("naive on second store: %v", err)
	}
	if !res4.Relation.Equal(naive2.Relation) {
		t.Fatal("swapped environment served a stale cached plan")
	}
}

// TestExplainStatsAndCacheStatus asserts EXPLAIN's plan-cache status
// line: a miss before the first run, a hit after it.
func TestExplainStatsAndCacheStatus(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 12)
	q := `SELECT WHEN DEPT = 'Toys' FROM EMP`
	out, err := sess(st).Explain(q)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(out, "plan-cache: miss") {
		t.Errorf("explain before any run should report a cache miss:\n%s", out)
	}
	if _, err := sess(st).Query(bg, q); err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err = sess(st).Explain(q)
	if err != nil {
		t.Fatalf("explain after run: %v", err)
	}
	if !strings.Contains(out, "plan-cache: hit") {
		t.Errorf("explain after run should report a cache hit:\n%s", out)
	}
}

// TestTinyRelationTimeslice pins the slice of a relation too small for
// the interval index to pay: two tuples leave the probe no budget
// (n − log n − 1 < 1), so the index-time-slice restricts every tuple,
// answers as the naive evaluator does, and builds no interval index.
func TestTinyRelationTimeslice(t *testing.T) {
	rs := schema.MustNew("TINY", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: lifespan.Interval(0, 99)},
	)
	r := core.NewRelation(rs)
	for i := 0; i < 2; i++ {
		r.MustInsert(core.NewTupleBuilder(rs, lifespan.Interval(chronon.Time(10*i), chronon.Time(10*i+5))).
			Key("NAME", value.String_(fmt.Sprintf("t%d", i))).MustBuild())
	}
	st := storage.NewStore()
	st.Put(r)
	const q = `TIMESLICE TINY AT {[0,5]}`
	ib0 := idxMetrics.intervalBuilds.Load()
	out, err := sess(st).Explain(q)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(out, "index-time-slice TINY at {[0,5]} (interval index over budget: restricting all 2 tuples)") {
		t.Fatalf("tiny relation should restrict every tuple:\n%s", out)
	}
	compareQuery(t, st, q)
	if ib := idxMetrics.intervalBuilds.Load(); ib != ib0 {
		t.Fatalf("slicing a 2-tuple relation built %d interval indexes, want 0", ib-ib0)
	}
}

// TestEngineConcurrentReadWrite interleaves engine queries with Insert
// and InsertMerging on the relations they scan: the lock story plus
// per-version index builds under real contention, with a final
// equivalence sweep once writers settle.
func TestEngineConcurrentReadWrite(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 31)
	emp, _ := st.Get("EMP")

	queries := []string{
		`TIMESLICE EMP AT {[10,30]}`,
		`SELECT WHEN NAME = 'emp0003' FROM EMP`,
		`SELECT WHEN DEPT = 'Toys' DURING {[5,60]} FROM EMP`,
		`EMP JOIN REF ON NAME = RNAME`,
		`SELECT IF SAL > 25000 EXISTS FROM EMP`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := sess(st).Query(bg, queries[(g+i)%len(queries)]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := emp.Insert(empTuple(emp.Scheme(), fmt.Sprintf("live%04d", i), i%190, i%190+6, 27000, "Live")); err != nil {
				errs <- fmt.Errorf("writer insert: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			// Re-merge disjoint extensions of this goroutine's own keys.
			name := fmt.Sprintf("merge%04d", i%5)
			lo := 7 * i % 150
			if err := emp.InsertMerging(empTuple(emp.Scheme(), name, lo, lo+2, 31000, "Live")); err != nil {
				errs <- fmt.Errorf("writer merge: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Once quiescent, the indexes and cached plans must agree
	// with the naive evaluator byte-for-byte.
	for _, q := range []string{
		`TIMESLICE EMP AT {[10,30]}`,
		`SELECT WHEN DEPT = 'Live' FROM EMP`,
		`SELECT WHEN NAME = 'live0007' FROM EMP`,
		`EMP JOIN REF ON NAME = RNAME`,
	} {
		compareQuery(t, st, q)
	}
}
