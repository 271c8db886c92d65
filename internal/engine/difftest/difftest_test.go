// Package difftest is the differential equivalence harness for the
// parallel executor: golden and fuzz-generated HQL runs through three
// evaluation paths — the naive reference evaluator, the engine at
// workers=1 (sequential execution of the same plans), and the engine
// at workers 2/4/8 — and every path must agree exactly: same error
// presence, Equal results, and byte-identical canonical renderings at
// every degree. The package keeps the parallel planning threshold
// lowered for its whole binary so the small deterministic store plans
// parallel operators on every eligible shape.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// diffWorkers is the degree ladder every query runs at; 1 is the
// sequential baseline the parallel runs must match byte-for-byte.
var diffWorkers = []int{1, 2, 4, 8}

func TestMain(m *testing.M) {
	// Low threshold for the whole binary: eligible operators run
	// partitioned on the ~100-tuple fixture.
	engine.SetParallelThreshold(8)
	engine.ResetPlanCache()
	os.Exit(m.Run())
}

// diffStore builds the deterministic fixture: the workload generators'
// EMP and STOCK histories plus a REF relation keyed by employee name,
// giving every eligible plan shape (candidate selects, time-slices,
// windowed filters, index joins) a parallel-sized input.
func diffStore(tb testing.TB, seed int64) *storage.Store {
	tb.Helper()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 60, HistoryLen: 200, ChangeEvery: 12, ReincarnationProb: 0.4, Seed: seed,
	}))
	st.Put(workload.Stock(workload.StockConfig{
		NumStocks: 15, HistoryLen: 120, VolumeGapLo: 0.3, VolumeGapHi: 0.6, Seed: seed + 1,
	}))

	full := lifespan.Interval(0, 199)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "GRP", Domain: value.Strings, Lifespan: full},
	)
	ref := core.NewRelation(rs)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < 25; i++ {
		n := rng.Intn(120)
		lo := chronon.Time(rng.Intn(150))
		hi := lo + chronon.Time(1+rng.Intn(49))
		b := core.NewTupleBuilder(rs, lifespan.Interval(lo, hi))
		b.Key("RNAME", value.String_(fmt.Sprintf("emp%04d", n)))
		b.Set("BONUS", lo, hi, value.Int(int64(1000*rng.Intn(10))))
		b.SetConst("GRP", value.String_([]string{"A", "B", "C"}[rng.Intn(3)]))
		t, err := b.Build()
		if err != nil {
			tb.Fatalf("build REF tuple: %v", err)
		}
		if err := ref.Insert(t); err != nil {
			continue // duplicate name; skip
		}
	}
	st.Put(ref)
	return st
}

// goldenQueries is the hand-picked battery: every parallel-eligible
// plan shape plus surrounding operators (unions, projections, WHEN,
// SNAPSHOT) that consume parallel sub-plans.
var goldenQueries = []string{
	`TIMESLICE EMP AT {[0,9]}`,
	`TIMESLICE EMP AT {[50,60],[150,160]}`,
	`TIMESLICE EMP AT {[0,190]}`,
	`TIMESLICE EMP AT {[-inf,+inf]}`,
	`SELECT WHEN NAME = 'emp0007' FROM EMP`,
	`SELECT WHEN DEPT = 'Toys' FROM EMP`,
	`SELECT IF DEPT = 'Toys' FORALL FROM EMP`,
	`SELECT IF DEPT = 'Toys' FORALL DURING {[20,40]} FROM EMP`,
	`SELECT WHEN SAL > 30000 AND DEPT = 'Books' FROM EMP`,
	`SELECT WHEN SAL > 28000 DURING {[100,110]} FROM EMP`,
	`SELECT IF SAL >= 34000 EXISTS DURING {[20,40]} FROM EMP`,
	`SELECT WHEN GRP = 'A' FROM REF`,
	`PROJECT NAME, SAL FROM (SELECT WHEN SAL > 26000 FROM EMP)`,
	`EMP JOIN REF ON NAME = RNAME`,
	`REF JOIN EMP ON RNAME = NAME`,
	`EMP JOIN REF ON DEPT = GRP`,
	`(TIMESLICE EMP AT {[0,49]}) JOIN REF ON NAME = RNAME`,
	`(SELECT WHEN DEPT = 'Toys' FROM EMP) UNIONMERGE (SELECT WHEN DEPT = 'Shoes' FROM EMP)`,
	`EMP MINUSMERGE (TIMESLICE EMP AT {[0,99]})`,
	`WHEN (SELECT WHEN SAL = 30000 FROM EMP)`,
	`SNAPSHOT EMP AT 42`,
	`TIMESLICE STOCK BY EX_DIV`,
}

// compareAll runs src through the naive evaluator and the engine at
// every degree, failing on any divergence. It reports (via bool)
// whether the query executed successfully, so the fuzz target can
// count interesting inputs.
func compareAll(t *testing.T, st *storage.Store, src string) bool {
	t.Helper()
	e, err := hql.Parse(src)
	if err != nil {
		return false
	}
	ctx := context.Background()
	nRes, nErr := hql.EvalNaiveContext(ctx, e, st)
	var baseline string
	sess := engine.OpenDB(st).NewSession()
	for _, w := range diffWorkers {
		gRes, gErr := sess.Eval(engine.WithWorkers(ctx, w), e)
		if (nErr != nil) != (gErr != nil) {
			t.Fatalf("%q workers=%d: naive err=%v, engine err=%v", src, w, nErr, gErr)
		}
		if nErr != nil {
			return false
		}
		var render string
		switch {
		case nRes.Relation != nil:
			if gRes.Relation == nil || !nRes.Relation.Equal(gRes.Relation) {
				t.Fatalf("%q workers=%d: relations differ\nnaive:\n%s\nengine:\n%v", src, w, nRes.Relation, gRes.Relation)
			}
			render = gRes.Relation.String()
			if render != nRes.Relation.String() {
				t.Fatalf("%q workers=%d: canonical renderings differ from naive", src, w)
			}
		case nRes.Lifespan != nil:
			if gRes.Lifespan == nil || !nRes.Lifespan.Equal(*gRes.Lifespan) {
				t.Fatalf("%q workers=%d: lifespans differ: naive %v engine %v", src, w, nRes.Lifespan, gRes.Lifespan)
			}
			render = gRes.Lifespan.String()
		case nRes.Snapshot != nil:
			if gRes.Snapshot == nil || nRes.Snapshot.String() != gRes.Snapshot.String() {
				t.Fatalf("%q workers=%d: snapshots differ", src, w)
			}
			render = gRes.Snapshot.String()
		}
		// Byte-identical output across every degree: the ordered merge's
		// determinism contract.
		if w == diffWorkers[0] {
			baseline = render
		} else if render != baseline {
			t.Fatalf("%q: output at workers=%d differs from workers=%d\nw=%d:\n%s\nw=%d:\n%s",
				src, w, diffWorkers[0], diffWorkers[0], baseline, w, render)
		}
	}
	return true
}

// TestDifferentialGolden runs the full battery on two seeds.
func TestDifferentialGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		st := diffStore(t, seed)
		for _, q := range goldenQueries {
			if !compareAll(t, st, q) {
				t.Errorf("seed %d: golden query failed to execute: %s", seed, q)
			}
		}
	}
}

// generated is the randomized query generator: windows, names and
// thresholds drawn from rng over nine shapes, i selecting the shape.
func generated(rng *rand.Rand, i int) string {
	lo := rng.Intn(220) - 10
	hi := lo + rng.Intn(90)
	name := fmt.Sprintf("emp%04d", rng.Intn(80))
	dept := []string{"Toys", "Shoes", "Books", "Tools", "Music"}[rng.Intn(5)]
	sal := 24000 + rng.Intn(30)*1000
	queries := []string{
		fmt.Sprintf(`TIMESLICE EMP AT {[%d,%d]}`, lo, hi),
		fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, name),
		fmt.Sprintf(`SELECT WHEN SAL > %d AND DEPT = '%s' FROM EMP`, sal, dept),
		fmt.Sprintf(`SELECT IF SAL > %d EXISTS DURING {[%d,%d]} FROM EMP`, sal, lo, hi),
		fmt.Sprintf(`SELECT IF DEPT = '%s' FORALL DURING {[%d,%d]} FROM EMP`, dept, lo, hi),
		fmt.Sprintf(`SELECT WHEN DEPT = '%s' DURING {[%d,%d]} FROM EMP`, dept, lo, hi),
		fmt.Sprintf(`(TIMESLICE EMP AT {[%d,%d]}) JOIN REF ON NAME = RNAME`, lo, hi),
		fmt.Sprintf(`SNAPSHOT EMP AT %d`, lo),
		fmt.Sprintf(`WHEN (SELECT WHEN DEPT = '%s' DURING {[%d,%d]} FROM EMP)`, dept, lo, hi),
	}
	return queries[i%len(queries)]
}

// TestDifferentialRandomized drives generated queries over randomized
// windows, names and thresholds — the deterministic cousin of the fuzz
// target below, always on in plain `go test`.
func TestDifferentialRandomized(t *testing.T) {
	st := diffStore(t, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		compareAll(t, st, generated(rng, i))
	}
}

// commitInterleaved commits one write group that moves data under
// cached plans in every way a write can: a fresh EMP and a fresh REF
// tuple; a merge that turns REF.GRP — constant on every REF tuple —
// time-varying on one of them (out of its hash bucket, into the varying
// overflow); and merges that extend three EMP lifespans into chronons
// they did not cover, so a tuple outside a query's window before the
// write can be inside it after. round varies which tuples are hit.
func commitInterleaved(t *testing.T, st *storage.Store, round int) {
	t.Helper()
	emp, _ := st.Get("EMP")
	ref, _ := st.Get("REF")
	es, rs := emp.Scheme(), ref.Scheme()
	full := lifespan.Interval(0, 199)
	g := core.NewWriteGroup()

	lo := chronon.Time(7 * round % 150)
	g.Insert(emp, core.NewTupleBuilder(es, lifespan.Interval(lo, lo+40)).
		Key("NAME", value.String_(fmt.Sprintf("new%04d", round))).
		Set("SAL", lo, lo+40, value.Int(int64(26000+500*round))).
		Set("DEPT", lo, lo+40, value.String_("Toys")).
		MustBuild())
	g.Insert(ref, core.NewTupleBuilder(rs, lifespan.Interval(lo, lo+20)).
		Key("RNAME", value.String_(fmt.Sprintf("new%04d", round))).
		Set("BONUS", lo, lo+20, value.Int(500)).
		Set("GRP", lo, lo+20, value.String_("A")).
		MustBuild())

	// free is the first stretch of the clock o's lifespan misses.
	free := func(o *core.Tuple) (chronon.Interval, bool) {
		ivs := full.Minus(o.Lifespan()).Intervals()
		if len(ivs) == 0 {
			return chronon.Interval{}, false
		}
		return ivs[0], true
	}
	//lint:allow pindiscipline single-goroutine test reads the relations it is about to write
	rts, ets := ref.Tuples(), emp.Tuples()
	r := rts[round%len(rts)]
	if iv, ok := free(r); ok {
		g.InsertMerging(ref, core.NewTupleBuilder(rs, lifespan.Interval(iv.Lo, iv.Hi)).
			Key("RNAME", r.KeyValue("RNAME")).
			Set("BONUS", iv.Lo, iv.Hi, value.Int(1)).
			Set("GRP", iv.Lo, iv.Hi, value.String_("Z")).
			MustBuild())
	}
	for k := 0; k < 3; k++ {
		e := ets[(3*round+k)%60]
		if iv, ok := free(e); ok {
			g.InsertMerging(emp, core.NewTupleBuilder(es, lifespan.Interval(iv.Lo, iv.Hi)).
				Key("NAME", e.KeyValue("NAME")).
				Set("SAL", iv.Lo, iv.Hi, value.Int(41000)).
				Set("DEPT", iv.Lo, iv.Hi, value.String_("Books")).
				MustBuild())
		}
	}
	if err := g.Commit(); err != nil {
		t.Fatalf("round %d: commit: %v", round, err)
	}
}

// TestDifferentialWriteInterleaved is the harness's mode for the plan
// cache's contract — a plan holds no data, so a write to a relation it
// reads neither invalidates it nor makes it wrong. Every golden and
// generated query runs, a write group lands (commitInterleaved), and
// the query runs again: both runs must agree with the naive evaluator
// byte for byte at every degree, and the second must be served entirely
// from the plans the first cached — no miss, one hit per degree.
func TestDifferentialWriteInterleaved(t *testing.T) {
	st := diffStore(t, 9)
	rng := rand.New(rand.NewSource(13))
	queries := append([]string(nil), goldenQueries...)
	for i := 0; i < 30; i++ {
		queries = append(queries, generated(rng, i))
	}
	for round, q := range queries {
		if !compareAll(t, st, q) {
			t.Errorf("query failed to execute: %s", q)
			continue
		}
		commitInterleaved(t, st, round)
		h0, m0, _ := engine.PlanCacheStats()
		if !compareAll(t, st, q) {
			t.Errorf("query failed to execute after the write: %s", q)
		}
		h1, m1, _ := engine.PlanCacheStats()
		if m1 != m0 || h1-h0 != uint64(len(diffWorkers)) {
			t.Errorf("%q after a write group: hits +%d misses +%d, want +%d / +0 — the cached plan did not survive the write",
				q, h1-h0, m1-m0, len(diffWorkers))
		}
	}
}

// FuzzDifferential mutates HQL sources; any input that parses must
// evaluate identically on the naive, sequential and parallel paths.
// Registered in the CI fuzz smoke alongside the parser fuzzers.
func FuzzDifferential(f *testing.F) {
	for _, q := range goldenQueries {
		f.Add(q)
	}
	st := diffStore(f, 5)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return // keep pathological inputs from dominating the budget
		}
		compareAll(t, st, src)
	})
}
