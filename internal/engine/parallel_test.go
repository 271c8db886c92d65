package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// lowerParallelThreshold drops the engage threshold so the small test
// fixtures run partitioned, restoring the previous threshold on cleanup.
func lowerParallelThreshold(t testing.TB, th int) {
	t.Helper()
	prev := SetParallelThreshold(th)
	t.Cleanup(func() { SetParallelThreshold(prev) })
}

// sessAt opens a session on a DB over st whose queries run parallel
// operators at degree w. DBs over one store share cached plans.
func sessAt(st *storage.Store, w int) *Session {
	return OpenDBOptions(st, DBOptions{Workers: w}).NewSession()
}

// marchStore builds a store whose MARCH relation has n tuples with
// lifespans marching forward in insertion order — all but the last
// four live inside [0,60], the last four late in [95,99] — so the
// final chunk lives entirely outside a [0,90] window, and that window
// overlaps so much of the relation that the interval index declines
// and the time-slice partitions the whole relation.
func marchStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	full := lifespan.Interval(0, 99)
	s := schema.MustNew("MARCH", []string{"ID"},
		schema.Attribute{Name: "ID", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	r := core.NewRelation(s)
	for i := 0; i < n; i++ {
		lo := chronon.Time(i % 56)
		if i >= n-4 {
			lo = 95
		}
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(lo, lo+4)).
			Key("ID", value.String_(fmt.Sprintf("m%04d", i))).
			Set("SAL", lo, lo+4, value.Int(int64(i))).
			MustBuild())
	}
	st := storage.NewStore()
	st.Put(r)
	return st
}

// parallelBattery is the set of queries whose plans take a parallel
// operator once the threshold admits the fixture: candidate-set
// selects, index and scan time-slices, DURING and ∀ filters, and the
// index lookup join streaming a base scan.
var parallelBattery = []string{
	`SELECT WHEN DEPT = 'Toys' FROM EMP`,
	`SELECT WHEN SAL > 30000 AND DEPT = 'Books' FROM EMP`,
	`SELECT WHEN SAL > 28000 DURING {[100,110]} FROM EMP`,
	`SELECT IF DEPT = 'Toys' FORALL DURING {[20,40]} FROM EMP`,
	`TIMESLICE EMP AT {[50,60],[150,160]}`,
	`EMP JOIN REF ON NAME = RNAME`,
	`REF JOIN EMP ON RNAME = NAME`,
	`EMP JOIN REF ON DEPT = GRP`,
}

// TestParallelPlanShape pins the planning gate: below the threshold
// plans stay sequential, above it the eligible shapes take a parallel
// operator.
func TestParallelPlanShape(t *testing.T) {
	st := testStore(t, 3)
	// Default threshold: the small fixture must plan exactly as before.
	out, err := sess(st).Explain(`SELECT WHEN DEPT = 'Toys' FROM EMP`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "parallel") {
		t.Fatalf("sub-threshold input planned parallel:\n%s", out)
	}

	lowerParallelThreshold(t, 8)
	for _, q := range parallelBattery {
		out, err := sess(st).Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !strings.Contains(out, "parallel (chunk=") {
			t.Errorf("%s: no parallel operator in plan:\n%s", q, out)
		}
	}
}

// TestParallelEquivalenceAcrossDegrees is the heart of the correctness
// story: every battery query, evaluated naively and by the engine at
// degrees 1, 2, 4 and 8, must produce Equal relations AND identical
// canonical renderings — the ordered merge reproduces the sequential
// output byte-for-byte at every degree.
func TestParallelEquivalenceAcrossDegrees(t *testing.T) {
	lowerParallelThreshold(t, 8)
	st := testStore(t, 5)
	for _, q := range parallelBattery {
		e, err := hql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		nRes, nErr := hql.EvalNaive(e, st)
		if nErr != nil {
			t.Fatalf("%q: naive: %v", q, nErr)
		}
		var first string
		for _, w := range []int{1, 2, 4, 8} {
			gRes, gErr := sessAt(st, w).Eval(bg, e)
			if gErr != nil {
				t.Fatalf("%q workers=%d: %v", q, w, gErr)
			}
			if !nRes.Relation.Equal(gRes.Relation) {
				t.Fatalf("%q workers=%d: differs from naive\nnaive:\n%s\nengine:\n%s",
					q, w, nRes.Relation, gRes.Relation)
			}
			render := gRes.Relation.String()
			if w == 1 {
				first = render
			} else if render != first {
				t.Fatalf("%q: rendering at workers=%d differs from workers=1\nw=1:\n%s\nw=%d:\n%s",
					q, w, first, w, render)
			}
		}
	}
}

// TestParallelPartitionPruning checks that no chunk is skipped. The
// [0,90] window overlaps 60 of 64 tuples, so the interval index
// declines (its budget is n − log n − 1) and TIMESLICE partitions the
// whole pinned relation; the final chunk lives entirely in [95,99]
// and is scanned like every other, contributing nothing, so all 16
// partitions run and the result is exactly the sequential one.
func TestParallelPartitionPruning(t *testing.T) {
	lowerParallelThreshold(t, 8) // chunk = 4 → 16 partitions of 64 tuples
	st := marchStore(t, 64)
	q := `TIMESLICE MARCH AT {[0,90]}`

	out, err := sess(st).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "restricting all 64 tuples), parallel (chunk=4)") {
		t.Fatalf("wide time-slice did not partition the whole relation:\n%s", out)
	}

	e, err := hql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := hql.EvalNaive(e, st)
	if err != nil {
		t.Fatal(err)
	}
	s0 := parMetrics.scanned.Load()
	gRes, err := sessAt(st, 4).Eval(bg, e)
	if err != nil {
		t.Fatal(err)
	}
	if !nRes.Relation.Equal(gRes.Relation) || nRes.Relation.String() != gRes.Relation.String() {
		t.Fatalf("partitioned execution differs from naive\nnaive:\n%s\nengine:\n%s", nRes.Relation, gRes.Relation)
	}
	if scanned := parMetrics.scanned.Load() - s0; scanned != 16 {
		t.Fatalf("scanned %d partitions, want all 16", scanned)
	}
}

// TestParallelForAllNoPrune: ∀-quantified selection keeps tuples whose
// scope misses the window entirely (vacuous truth), so its parallel
// form must agree with the naive evaluator on a fixture where most
// tuples are such vacuous survivors.
func TestParallelForAllNoPrune(t *testing.T) {
	lowerParallelThreshold(t, 8)
	st := marchStore(t, 64)
	q := `SELECT IF SAL >= 0 FORALL DURING {[0,5]} FROM MARCH`
	out, err := sess(st).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallel") {
		t.Fatalf("forAll filter over a big scan should still parallelize:\n%s", out)
	}
	e, _ := hql.Parse(q)
	nRes, err := hql.EvalNaive(e, st)
	if err != nil {
		t.Fatal(err)
	}
	gRes, err := sessAt(st, 4).Eval(bg, e)
	if err != nil {
		t.Fatal(err)
	}
	if !nRes.Relation.Equal(gRes.Relation) {
		t.Fatalf("forAll differs from naive\nnaive:\n%s\nengine:\n%s", nRes.Relation, gRes.Relation)
	}
}

// TestParallelWorkerMetrics checks the worker-pool observability: a
// multi-partition run at degree > 1 moves the task (or inline) and
// partition-row counters, and the busy gauge returns to zero.
func TestParallelWorkerMetrics(t *testing.T) {
	lowerParallelThreshold(t, 8)
	st := marchStore(t, 64)
	t0 := parMetrics.tasks.Load()
	i0 := parMetrics.inline.Load()
	r0 := parMetrics.rows.Load()
	if _, err := sessAt(st, 4).Query(bg, `SELECT WHEN SAL >= 0 FROM MARCH`); err != nil {
		t.Fatal(err)
	}
	if parMetrics.tasks.Load() == t0 && parMetrics.inline.Load() == i0 {
		t.Fatal("neither pool tasks nor inline runs counted")
	}
	if parMetrics.rows.Load()-r0 != 64 {
		t.Fatalf("partition_rows moved by %d, want 64", parMetrics.rows.Load()-r0)
	}
	if got := parMetrics.busy.Load(); got != 0 {
		t.Fatalf("busy_workers=%d after the query drained, want 0", got)
	}
}

// TestParallelCancellation verifies workers honor the query context: an
// already-canceled context fails the parallel execution with the
// engine's canceled classification, not a partial result.
func TestParallelCancellation(t *testing.T) {
	lowerParallelThreshold(t, 8)
	st := marchStore(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sessAt(st, 4).Query(ctx, `SELECT WHEN SAL >= 0 FROM MARCH`); err == nil {
		t.Fatal("canceled context produced a result")
	}
}

// TestAnalyzeAccountingParallel extends the Σself ≈ root-wall identity
// to partitioned runs: the operator absorbs its partition work into
// its own wall (concurrently-executing partition workers are counted
// once), and the partition accounting (degree, partitions) is
// rendered.
func TestAnalyzeAccountingParallel(t *testing.T) {
	lowerParallelThreshold(t, 8)
	st := marchStore(t, 64)
	for _, q := range []string{
		`SELECT WHEN SAL >= 0 FROM MARCH`,
		`TIMESLICE MARCH AT {[0,90]}`,
	} {
		a, err := analyzeQuery(bg, q, OpenDBOptions(st, DBOptions{Workers: 4}))
		if err != nil {
			t.Fatal(err)
		}
		root := a.rootStats()
		if root == nil || root.par == nil {
			t.Fatalf("%s: root is not a profiled parallel operator", q)
		}
		if root.par.degree < 1 || root.par.degree > 4 {
			t.Fatalf("%s: degree=%d outside [1,4]", q, root.par.degree)
		}
		if root.par.parts != 16 {
			t.Fatalf("%s: partitions=%d, want 16 (64 tuples, chunk 4)", q, root.par.parts)
		}
		if a.res.Relation == nil || int64(a.res.Relation.Cardinality()) != root.rows {
			t.Fatalf("%s: root rows=%d vs result %v", q, root.rows, a.res.Relation)
		}
		// Σ self over the tree still partitions the root's wall:
		// concurrent partition work is counted once, in the operator's
		// own self time.
		var selfSum time.Duration
		var walk func(n node)
		walk = func(n node) {
			selfSum += a.selfTime(n)
			for _, k := range n.children() {
				walk(k)
			}
		}
		walk(a.plan.root)
		if selfSum < root.wall || selfSum > root.wall+root.wall/10+time.Millisecond {
			t.Fatalf("%s: Σ self=%v vs root wall=%v", q, selfSum, root.wall)
		}
		exec := a.sp.StageDur(obs.StageExecute)
		if root.wall > exec {
			t.Fatalf("%s: root wall %v exceeds execute stage %v", q, root.wall, exec)
		}
		out := a.render()
		if !strings.Contains(out, "degree=") || !strings.Contains(out, "partitions=") {
			t.Fatalf("%s: partition accounting missing from rendering:\n%s", q, out)
		}
	}
}

// TestDBOwnsDegree: the degree a query runs with is its DB's. Over one
// store, ANALYZE on a Workers: 1 DB reports degree 1; a Workers: 4 DB
// then runs the same text on the plan the first DB cached — one miss
// in total — and renders the result byte for byte as the first did.
func TestDBOwnsDegree(t *testing.T) {
	ResetPlanCache()
	t.Cleanup(ResetPlanCache)
	lowerParallelThreshold(t, 8)
	st := marchStore(t, 64)
	const q = `SELECT WHEN SAL >= 0 FROM MARCH`
	one, four := sessAt(st, 1), sessAt(st, 4)

	out, err := one.ExplainAnalyze(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " degree=1 partitions=16)") {
		t.Fatalf("Workers: 1 DB did not run at degree 1:\n%s", out)
	}

	_, m0, _ := PlanCacheStats()
	r1, err := one.Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := four.Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, m1, _ := PlanCacheStats(); m1-m0 != 1 {
		t.Fatalf("%d plan-cache misses over two DBs, want 1: the degree leaked into the plan", m1-m0)
	}
	if a, b := r1.Relation.String(), r4.Relation.String(); a != b {
		t.Fatalf("rendering at degree 4 differs from degree 1\nw=1:\n%s\nw=4:\n%s", a, b)
	}
}

// TestParallelThresholdRestoredDefault guards against a test leaking a
// lowered threshold into the rest of the suite (the golden files depend
// on small stores planning sequentially).
func TestParallelThresholdRestoredDefault(t *testing.T) {
	if got := SetParallelThreshold(defaultParallelThreshold); got != defaultParallelThreshold {
		SetParallelThreshold(got) // put the odd value back for debugging
		t.Fatalf("parallel threshold leaked: %d, want %d", got, defaultParallelThreshold)
	}
}
