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
	// Low threshold for the whole binary: eligible plans go parallel on
	// the ~100-tuple fixture. (Plans are cached per (query, versions),
	// and every store here is built fresh, so no cross-test staleness.)
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

// TestDifferentialRandomized drives generated queries over randomized
// windows, names and thresholds — the deterministic cousin of the fuzz
// target below, always on in plain `go test`.
func TestDifferentialRandomized(t *testing.T) {
	st := diffStore(t, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
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
		compareAll(t, st, queries[i%len(queries)])
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
