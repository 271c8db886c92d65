package engine

import (
	"fmt"
	"math"
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
	"repro/internal/workload"
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

// TestIncrementalIndexMaintenance verifies the tentpole's third leg:
// single-tuple inserts and merges are absorbed into the built indexes
// via change notifications — no full rebuilds — and the maintained
// indexes keep answering exactly like a fresh scan.
func TestIncrementalIndexMaintenance(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 30, HistoryLen: 100, ChangeEvery: 10, ReincarnationProb: 0.3, Seed: 3,
	})
	x := Indexes(r)
	x.Interval()
	x.Attr("NAME")
	x.Attr("DEPT")
	ib0, ab0 := idxMetrics.intervalBuilds.Load(), idxMetrics.attrBuilds.Load()
	inc0, rs0 := idxMetrics.incremental.Load(), idxMetrics.resyncs.Load()

	// Absorb 20 inserts and 5 merges.
	for i := 0; i < 20; i++ {
		if err := r.Insert(empTuple(r.Scheme(), fmt.Sprintf("new%04d", i), 5*i%90, 5*i%90+4, 30000, "Growth")); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		// Extend the fresh tuples over disjoint chronons.
		base := 5 * i % 90
		if err := r.InsertMerging(empTuple(r.Scheme(), fmt.Sprintf("new%04d", i), base+20, base+24, 31000, "Growth")); err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
	}

	ib1, ab1 := idxMetrics.intervalBuilds.Load(), idxMetrics.attrBuilds.Load()
	inc1, rs1 := idxMetrics.incremental.Load(), idxMetrics.resyncs.Load()
	if ib1 != ib0 || ab1 != ab0 {
		t.Fatalf("full rebuilds during single-tuple maintenance: interval %d→%d, attr %d→%d", ib0, ib1, ab0, ab1)
	}
	if rs1 != rs0 {
		t.Fatalf("resyncs during sequential maintenance: %d→%d", rs0, rs1)
	}
	if inc1-inc0 != 25 {
		t.Fatalf("incremental ops = %d, want 25", inc1-inc0)
	}

	// The maintained interval index answers exactly like a fresh scan.
	_, vers := core.Pin(r)
	for _, L := range []lifespan.Lifespan{
		lifespan.Interval(0, 9), lifespan.Interval(40, 60), lifespan.MustParse("{[10,14],[80,99]}"),
	} {
		want := naiveOverlapping(r, L)
		got, _ := overlapping(vers[0], L, math.MaxInt)
		if len(got) != len(want) {
			t.Fatalf("L=%s: maintained index found %d, scan %d", L, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("L=%s: candidate %d differs", L, i)
			}
		}
	}
	// The maintained attribute index sees the new department...
	if got := len(x.Attr("DEPT").Probe(value.String_("Growth"))) + len(x.Attr("DEPT").Varying()); got < 20 {
		t.Fatalf("DEPT index sees %d Growth candidates, want ≥ 20", got)
	}
	// ...and the merged tuples replaced their pre-merge versions.
	nt, ok := r.Lookup(`"new0000"`)
	if !ok {
		t.Fatal("new0000 missing")
	}
	got := x.Attr("NAME").Probe(value.String_("new0000"))
	if ts := r.Tuples(); len(got) != 1 || ts[got[0]] != nt {
		t.Fatal("NAME index does not file new0000 once, at its merged tuple's position")
	}
	// The maintained lifespan index counts every tuple.
	if n := x.Interval().Tuples(); n != r.Cardinality() {
		t.Fatalf("interval index holds %d tuples, want %d", n, r.Cardinality())
	}
}

// TestIntervalOverlayCompaction drives enough inserts through the
// interval index to trip the overlay threshold and checks answers stay
// exact, and in key order, across the compaction. The inserted keys
// sort before the preloaded ones, so position order would differ.
func TestIntervalOverlayCompaction(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 10, HistoryLen: 200, ChangeEvery: 10, ReincarnationProb: 0, Seed: 5,
	})
	x := Indexes(r)
	x.Interval()
	ib0 := idxMetrics.intervalBuilds.Load()
	for i := 0; i < 200; i++ {
		if err := r.Insert(empTuple(r.Scheme(), fmt.Sprintf("c%04d", i), i%190, i%190+5, 1000, "X")); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	ib1 := idxMetrics.intervalBuilds.Load()
	if ib1 == ib0 {
		t.Fatal("overlay never compacted across 200 inserts")
	}
	L := lifespan.Interval(50, 70)
	_, vers := core.Pin(r)
	want := naiveOverlapping(r, L)
	got, _ := overlapping(vers[0], L, math.MaxInt)
	if len(got) != len(want) {
		t.Fatalf("after compaction index found %d, scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after compaction candidate %d differs", i)
		}
	}
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
// and InsertMerging on the relations they scan — the ISSUE's -race
// satellite: the lock story plus incremental index maintenance under
// real contention, with a final equivalence sweep once writers settle.
func TestEngineConcurrentReadWrite(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	st := testStore(t, 31)
	emp, _ := st.Get("EMP")
	// Warm every index class so maintenance (not first builds) is on the
	// hot path.
	Indexes(emp).Interval()
	Indexes(emp).Attr("DEPT")

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

	// Once quiescent, the maintained indexes and cached plans must agree
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
