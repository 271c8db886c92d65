// Package difftest is the differential equivalence harness for the
// parallel executor: golden and fuzz-generated HQL runs through three
// evaluation paths — the naive reference evaluator, the engine at
// workers=1 (sequential execution of the same plans), and the engine
// at workers 2/4/8 — and every path must agree exactly: same error
// class, Equal results, and byte-identical canonical renderings at
// every degree. The package keeps the parallel planning threshold
// lowered for its whole binary so the small deterministic store plans
// parallel operators on every eligible shape.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/hrdmerr"
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
// DURING filters, index joins) a parallel-sized input.
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
// SNAPSHOT) that consume parallel sub-plans; the shapes the planner
// rewrites by Section 5's laws (slices of σ-WHEN under a key equality,
// an attribute equality and a range, with and without DURING, at a
// literal and a WHEN-valued window; σ-WHEN over a slice of a slice;
// nested literal slices); and the shapes of rewrites that are not laws
// (a slice of σ-IF; σ over ∪o/∩o of two complementary slices — see
// core's TestNotALaw… witnesses).
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
	`TIMESLICE (SELECT WHEN NAME = 'emp0007' FROM EMP) AT {[10,60]}`,
	`TIMESLICE (SELECT WHEN DEPT = 'Toys' FROM EMP) AT {[10,60]}`,
	`TIMESLICE (SELECT WHEN SAL > 30000 FROM EMP) AT {[10,60]}`,
	`TIMESLICE (SELECT WHEN SAL > 30000 FROM (TIMESLICE EMP AT {[0,99]})) AT {[50,150]}`,
	`TIMESLICE (TIMESLICE EMP AT {[0,99]}) AT {[50,150]}`,
	`TIMESLICE (TIMESLICE (TIMESLICE EMP AT {[0,120]}) AT {[30,199]}) AT {[20,90],[110,115]}`,
	`SELECT IF SAL > 34000 EXISTS FROM ((TIMESLICE EMP AT {[0,99]}) UNIONMERGE (TIMESLICE EMP AT {[100,199]}))`,
	`SELECT IF DEPT = 'Toys' FORALL FROM ((TIMESLICE EMP AT {[0,99]}) UNIONMERGE (TIMESLICE EMP AT {[100,199]}))`,
	`SELECT WHEN SAL > 30000 FROM ((TIMESLICE EMP AT {[0,99]}) UNIONMERGE (TIMESLICE EMP AT {[100,199]}))`,
	`SELECT WHEN SAL > 30000 FROM ((TIMESLICE EMP AT {[0,99]}) INTERSECTMERGE (TIMESLICE EMP AT {[100,199]}))`,
	// The plain set operators, the product, and the natural, time and
	// outer joins; and union-compatible operands that list the same
	// attributes in different orders.
	`(SELECT IF SAL > 30000 EXISTS FROM EMP) UNION (SELECT IF DEPT = 'Toys' EXISTS FROM EMP)`,
	`(SELECT IF SAL > 30000 EXISTS FROM EMP) INTERSECT (SELECT IF DEPT = 'Toys' EXISTS FROM EMP)`,
	`EMP MINUS (SELECT IF DEPT = 'Toys' EXISTS FROM EMP)`,
	`REF TIMES (RENAME REF AS b)`,
	`EMP NATJOIN (PROJECT DEPT, NAME FROM (TIMESLICE EMP AT {[40,120]}))`,
	`STOCK TIMEJOIN REF ON EX_DIV`,
	`EMP OUTERJOIN REF ON NAME = RNAME`,
	`(PROJECT NAME, DEPT FROM EMP) UNION (PROJECT DEPT, NAME FROM EMP)`,
	`(PROJECT NAME, DEPT FROM EMP) MINUSMERGE (PROJECT DEPT, NAME FROM (TIMESLICE EMP AT {[50,150]}))`,
	// Per-tuple operators over a RENAME, a product, a time-join and an
	// object-based union.
	`SELECT WHEN b.SAL > 30000 FROM (RENAME EMP AS b)`,
	`PROJECT b.NAME, b.SAL FROM (RENAME EMP AS b)`,
	`TIMESLICE (REF TIMES (RENAME REF AS b)) AT {[20,80]}`,
	`SELECT WHEN GRP = 'A' FROM (STOCK TIMEJOIN REF ON EX_DIV)`,
	`TIMESLICE ((TIMESLICE EMP AT {[0,99]}) UNIONMERGE (TIMESLICE EMP AT {[100,199]})) AT {[50,150]}`,
	// A slice over a σ-WHEN with DURING folds into one DURING, as does an
	// AT WHEN window, and a σ-WHEN over a slice of a slice; a slice over a
	// σ-IF does not fold.
	`TIMESLICE (SELECT WHEN SAL > 28000 DURING {[40,120]} FROM EMP) AT {[100,160]}`,
	`TIMESLICE (SELECT IF DEPT = 'Toys' EXISTS DURING {[20,80]} FROM EMP) AT {[50,150]}`,
	`TIMESLICE (SELECT WHEN DEPT = 'Toys' FROM EMP) AT WHEN (SELECT WHEN SAL > 30000 FROM EMP)`,
	`SELECT WHEN SAL > 30000 FROM (TIMESLICE (TIMESLICE EMP AT {[0,120]}) AT {[60,199]})`,
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
	nRes, nErr := hql.EvalNaive(e, st)
	var baseline string
	for _, w := range diffWorkers {
		sess := engine.OpenDBOptions(st, engine.DBOptions{Workers: w}).NewSession()
		gRes, gErr := sess.Eval(context.Background(), e)
		if hrdmerr.CodeOf(nErr) != hrdmerr.CodeOf(gErr) {
			t.Fatalf("%q workers=%d: naive err=%v (class %d), engine err=%v (class %d)",
				src, w, nErr, hrdmerr.CodeOf(nErr), gErr, hrdmerr.CodeOf(gErr))
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
// thresholds drawn from rng over sixteen shapes, i selecting the shape.
func generated(rng *rand.Rand, i int) string {
	lo := rng.Intn(220) - 10
	hi := lo + rng.Intn(90)
	lo2 := rng.Intn(220) - 10
	hi2 := lo2 + rng.Intn(90)
	cut := rng.Intn(199)
	name := fmt.Sprintf("emp%04d", rng.Intn(80))
	dept := []string{"Toys", "Shoes", "Books", "Tools", "Music"}[rng.Intn(5)]
	sal := 24000 + rng.Intn(30)*1000
	// Two complementary slices of EMP, cut after chronon cut.
	halves := fmt.Sprintf(`(TIMESLICE EMP AT {[0,%d]}) %%s (TIMESLICE EMP AT {[%d,199]})`, cut, cut+1)
	queries := []string{
		fmt.Sprintf(`TIMESLICE (SELECT WHEN NAME = '%s' FROM EMP) AT {[%d,%d]}`, name, lo, hi),
		fmt.Sprintf(`TIMESLICE (SELECT WHEN DEPT = '%s' FROM EMP) AT {[%d,%d]}`, dept, lo, hi),
		fmt.Sprintf(`TIMESLICE (SELECT WHEN SAL > %d FROM EMP) AT {[%d,%d]}`, sal, lo, hi),
		fmt.Sprintf(`TIMESLICE (TIMESLICE EMP AT {[%d,%d]}) AT {[%d,%d]}`, lo, hi, lo2, hi2),
		fmt.Sprintf(`SELECT IF SAL > %d EXISTS FROM (%s)`, sal, fmt.Sprintf(halves, "UNIONMERGE")),
		fmt.Sprintf(`SELECT IF DEPT = '%s' FORALL FROM (%s)`, dept, fmt.Sprintf(halves, "UNIONMERGE")),
		fmt.Sprintf(`SELECT WHEN DEPT = '%s' FROM (%s)`, dept, fmt.Sprintf(halves, []string{"UNIONMERGE", "INTERSECTMERGE"}[rng.Intn(2)])),
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
	for i := 0; i < 96; i++ {
		compareAll(t, st, generated(rng, i))
	}
}

// contradictStore holds two merge-compatible relations that contradict
// each other on one object: John's SAL agrees on [0,9] and differs on
// [10,19]. Mary is in both and agrees everywhere; Ahmed is only in OLD.
func contradictStore() *storage.Store {
	full := lifespan.Interval(0, 99)
	scheme := func(name string) *schema.Scheme {
		return schema.MustNew(name, []string{"NAME"},
			schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
			schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full, Interp: "step"},
		)
	}
	emp := func(s *schema.Scheme, name string, lo, hi chronon.Time, sal1, sal2 int64) *core.Tuple {
		return core.NewTupleBuilder(s, lifespan.Interval(lo, hi)).
			Key("NAME", value.String_(name)).
			Set("SAL", lo, 9, value.Int(sal1)).
			Set("SAL", 10, hi, value.Int(sal2)).
			Set("DEPT", lo, hi, value.String_("Toys")).
			MustBuild()
	}
	st := storage.NewStore()
	old, nu := core.NewRelation(scheme("OLD")), core.NewRelation(scheme("NEW"))
	old.MustInsert(emp(old.Scheme(), "John", 0, 19, 30000, 30000))
	nu.MustInsert(emp(nu.Scheme(), "John", 0, 19, 30000, 40000))
	old.MustInsert(emp(old.Scheme(), "Mary", 5, 29, 30000, 35000))
	nu.MustInsert(emp(nu.Scheme(), "Mary", 5, 29, 30000, 35000))
	old.MustInsert(emp(old.Scheme(), "Ahmed", 2, 14, 30000, 31000))
	st.Put(old)
	st.Put(nu)
	return st
}

// TestDifferentialContradictingOperands runs the object-based set
// operators, under σ-WHEN and σ-IF, over operands that contradict each
// other: ∪o must fail with the naive evaluator's semantic class, ∩o must
// drop John. The first check is the fixture's own: selecting before
// intersecting answers differently — it keeps John on [0,9] — so an
// engine that pushed σ below ∩o would be caught here.
func TestDifferentialContradictingOperands(t *testing.T) {
	st := contradictStore()
	pushed, err := hql.Parse(`(SELECT WHEN SAL = 30000 FROM OLD) INTERSECTMERGE (SELECT WHEN SAL = 30000 FROM NEW)`)
	if err != nil {
		t.Fatal(err)
	}
	unpushed, err := hql.Parse(`SELECT WHEN SAL = 30000 FROM (OLD INTERSECTMERGE NEW)`)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := hql.EvalNaive(pushed, st)
	b, errB := hql.EvalNaive(unpushed, st)
	if errA != nil || errB != nil || a.String() == b.String() {
		t.Fatalf("fixture is no witness: pushed = %v (%v), as written = %v (%v)", a, errA, b, errB)
	}
	for _, q := range []string{
		`OLD UNIONMERGE NEW`,
		`OLD INTERSECTMERGE NEW`,
		`SELECT WHEN SAL = 30000 FROM (OLD UNIONMERGE NEW)`,
		`SELECT WHEN SAL = 30000 FROM (OLD INTERSECTMERGE NEW)`,
		`SELECT IF SAL = 30000 EXISTS FROM (OLD UNIONMERGE NEW)`,
		`SELECT IF SAL = 30000 EXISTS FROM (OLD INTERSECTMERGE NEW)`,
		`TIMESLICE (SELECT WHEN SAL = 30000 FROM (OLD INTERSECTMERGE NEW)) AT {[0,14]}`,
		`(SELECT WHEN SAL = 30000 FROM OLD) UNIONMERGE (SELECT WHEN SAL = 30000 FROM NEW)`,
		`(SELECT WHEN SAL = 30000 FROM OLD) INTERSECTMERGE (SELECT WHEN SAL = 30000 FROM NEW)`,
	} {
		compareAll(t, st, q)
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

// redraw returns a text of src's shape with other literals of the same
// kinds: new names, departments, thresholds and times, and each
// literal window shifted, with a new length where both its ends are
// finite.
func redraw(rng *rand.Rand, src string) string {
	shape, lits, ok := hql.Lift(src, nil, nil)
	if !ok {
		return src
	}
	out := make([]hql.Literal, len(lits))
	for i, l := range lits {
		text := l.Text
		switch l.Kind {
		case hql.LitInt:
			if v, _ := l.Value(); v.AsInt() > 1000 || v.AsInt() < -1000 {
				text = fmt.Sprint(24000 + 1000*rng.Intn(30))
			} else {
				text = fmt.Sprint(rng.Intn(220) - 10)
			}
		case hql.LitFloat:
			text = fmt.Sprintf("%d.5", rng.Intn(100))
		case hql.LitTime:
			text = fmt.Sprintf("@%d", rng.Intn(220))
		case hql.LitBool:
			text = []string{"TRUE", "FALSE"}[rng.Intn(2)]
		case hql.LitString:
			if v, _ := l.Value(); strings.HasPrefix(v.AsString(), "emp") {
				text = fmt.Sprintf("'emp%04d'", rng.Intn(80))
			} else {
				text = "'" + []string{"Toys", "Shoes", "Books", "Tools", "Music", "A", "B", "C"}[rng.Intn(8)] + "'"
			}
		case hql.LitLifespan:
			L, err := lifespan.Parse(l.Text)
			if err != nil {
				break
			}
			d := chronon.Time(rng.Intn(81) - 40)
			ivs := L.Intervals()
			for j, iv := range ivs {
				if iv.Lo != chronon.Min {
					iv.Lo += d
				}
				switch {
				case iv.Lo != chronon.Min && iv.Hi != chronon.Max:
					iv.Hi = iv.Lo + chronon.Time(rng.Intn(120))
				case iv.Hi != chronon.Max:
					iv.Hi += d
				}
				ivs[j] = iv
			}
			text = lifespan.New(ivs...).String()
		}
		out[i] = hql.Literal{Kind: l.Kind, Text: text}
	}
	return hql.Render(string(shape), out)
}

// TestDifferentialSharedShape is the harness's mode for plans keyed by
// shape. Every golden and generated query runs against an empty plan
// cache — its first run misses, and caches the plan the other degrees
// hit — then three times with its literals redrawn (redraw), windows of
// every width included. Every variant must be served by the first
// text's plan, with no second miss, and agree with the naive
// evaluator, error class included, byte for byte at every degree.
func TestDifferentialSharedShape(t *testing.T) {
	st := diffStore(t, 5)
	rng := rand.New(rand.NewSource(17))
	queries := append([]string(nil), goldenQueries...)
	for i := 0; i < 48; i++ {
		queries = append(queries, generated(rng, i))
	}
	defer engine.ResetPlanCache()
	for _, q := range queries {
		engine.ResetPlanCache()
		if !compareAll(t, st, q) {
			t.Errorf("query failed to execute: %s", q)
			continue
		}
		for k := 0; k < 3; k++ {
			v := redraw(rng, q)
			compareAll(t, st, v)
			if _, misses, _ := engine.PlanCacheStats(); misses != 1 {
				t.Errorf("%q, drawn from %q: %d misses, want the one of the shape's first run", v, q, misses)
			}
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
