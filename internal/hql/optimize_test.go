package hql_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/workload"
)

// HQL queries are optimised by the engine's planner, which applies
// Section 5's laws while lowering — nested literal slices compose, and a
// slice over σ-WHEN folds into the selection's DURING, whose run takes
// whichever probe its pin prices cheaper — and leaves the written
// expression alone. These tests state, per query shape, which rewrites
// mean the same as the text as written under the reference evaluator,
// which do not, and that the planned answer is the written one's.
// internal/engine's TestPlanLawShapes pins the chosen plan shapes at a
// size where the probes differ.

// naive evaluates q with the reference evaluator over the demo database.
func naive(t *testing.T, q string) hql.Result {
	t.Helper()
	e, err := hql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	res, err := hql.EvalNaive(e, workload.Demo())
	if err != nil {
		t.Fatalf("naive %q: %v", q, err)
	}
	return res
}

// planned runs q through an engine session over the demo database.
func planned(t *testing.T, q string) hql.Result {
	t.Helper()
	res, err := engine.OpenDB(workload.Demo()).NewSession().Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

// explainPlan returns the plan lines of q's EXPLAIN, past the query line.
func explainPlan(t *testing.T, q string) []string {
	t.Helper()
	out, err := engine.OpenDB(workload.Demo()).NewSession().Explain(q)
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	return strings.Split(out, "\n")[1:]
}

func sameResult(a, b hql.Result) bool {
	switch {
	case a.Relation != nil:
		return b.Relation != nil && a.Relation.Equal(b.Relation)
	case a.Lifespan != nil:
		return b.Lifespan != nil && a.Lifespan.Equal(*b.Lifespan)
	}
	return b.Relation == nil && b.Lifespan == nil
}

// TestOptimizeSelectPushdown: σ pushed below ∪o is not a law. Over two
// complementary slices of EMP, σ-IF on the union keeps the whole history
// of every employee who ever earned 30000, while σ-IF on each operand
// keeps only the half it saw the salary in. The planned query answers as
// written.
func TestOptimizeSelectPushdown(t *testing.T) {
	const written = `SELECT IF SAL = 30000 EXISTS FROM ((TIMESLICE EMP AT {[0,4]}) UNIONMERGE (TIMESLICE EMP AT {[5,99]}))`
	const pushed = `(SELECT IF SAL = 30000 EXISTS FROM (TIMESLICE EMP AT {[0,4]})) UNIONMERGE (SELECT IF SAL = 30000 EXISTS FROM (TIMESLICE EMP AT {[5,99]}))`
	want := naive(t, written)
	if sameResult(want, naive(t, pushed)) {
		t.Fatalf("σ-IF below ∪o answered as written on the demo database:\n%s", want)
	}
	if got := planned(t, written); !sameResult(got, want) {
		t.Errorf("planned %q:\n%s\nwant\n%s", written, got, want)
	}
}

// TestOptimizeSliceComposition: T_L1(T_L2(r)) means T_{L1∩L2}(r), and
// the planner makes it one index probe at the intersected lifespan.
func TestOptimizeSliceComposition(t *testing.T) {
	const written = `TIMESLICE (TIMESLICE EMP AT {[0,9]}) AT {[5,19]}`
	want := naive(t, written)
	if composed := naive(t, `TIMESLICE EMP AT {[5,9]}`); !sameResult(want, composed) {
		t.Fatalf("composed slice answered\n%s\nwant\n%s", composed, want)
	}
	if got := planned(t, written); !sameResult(got, want) {
		t.Errorf("planned %q:\n%s\nwant\n%s", written, got, want)
	}
	if plan := explainPlan(t, written); !strings.Contains(plan[0], "time-slice") || !strings.Contains(plan[0], "at {[5,9]}") ||
		strings.Contains(strings.Join(plan[1:], "\n"), "time-slice") {
		t.Errorf("explain %q:\n%s\nwant one slice at {[5,9]}", written, strings.Join(plan, "\n"))
	}
}

// TestOptimizeSliceBeforeSelect: a static slice commutes with σ-WHEN,
// which is pointwise, but not with σ-IF, whose quantifier ranges over
// the lifespan the slice cuts away; the planner keeps σ-IF under the
// slice.
func TestOptimizeSliceBeforeSelect(t *testing.T) {
	const written = `TIMESLICE (SELECT WHEN SAL = 30000 FROM EMP) AT {[0,4]}`
	want := naive(t, written)
	if swapped := naive(t, `SELECT WHEN SAL = 30000 FROM (TIMESLICE EMP AT {[0,4]})`); !sameResult(want, swapped) {
		t.Fatalf("σ-WHEN over the slice answered\n%s\nwant\n%s", swapped, want)
	}
	if got := planned(t, written); !sameResult(got, want) {
		t.Errorf("planned %q:\n%s\nwant\n%s", written, got, want)
	}

	const writtenIf = `TIMESLICE (SELECT IF SAL = 30000 EXISTS FROM EMP) AT {[5,9]}`
	wantIf := naive(t, writtenIf)
	if sameResult(wantIf, naive(t, `SELECT IF SAL = 30000 EXISTS FROM (TIMESLICE EMP AT {[5,9]})`)) {
		t.Fatalf("σ-IF over the slice answered as written on the demo database:\n%s", wantIf)
	}
	if got := planned(t, writtenIf); !sameResult(got, wantIf) {
		t.Errorf("planned %q:\n%s\nwant\n%s", writtenIf, got, wantIf)
	}
	if plan := explainPlan(t, writtenIf); !strings.HasPrefix(plan[0], "time-slice at {[5,9]}") ||
		!strings.HasPrefix(plan[1], "  ") || !strings.Contains(plan[1], "if-exists") {
		t.Errorf("explain %q:\n%s\nwant the slice over the σ-IF filter", writtenIf, strings.Join(plan, "\n"))
	}
}

// TestOptimizeProjectionPushdown: π below T_L means the same, but the
// planner does not make it — it would hide the base scan from the
// interval index — and keeps the projection over the indexed slice.
func TestOptimizeProjectionPushdown(t *testing.T) {
	const written = `PROJECT NAME, SAL FROM (TIMESLICE EMP AT {[0,9]})`
	want := naive(t, written)
	if pushed := naive(t, `TIMESLICE (PROJECT NAME, SAL FROM EMP) AT {[0,9]}`); !sameResult(want, pushed) {
		t.Fatalf("π below the slice answered\n%s\nwant\n%s", pushed, want)
	}
	if got := planned(t, written); !sameResult(got, want) {
		t.Errorf("planned %q:\n%s\nwant\n%s", written, got, want)
	}
	if plan := explainPlan(t, written); !strings.HasPrefix(plan[0], "project NAME, SAL") ||
		!strings.HasPrefix(plan[1], "  ") || !strings.Contains(plan[1], "time-slice") {
		t.Errorf("explain %q:\n%s\nwant the projection over the slice", written, strings.Join(plan, "\n"))
	}
}

// TestOptimizePreservesResults: every query shape a Section 5 law
// touches — and the shapes of the rewrites that are not laws — returns
// through the planner exactly what the reference evaluator returns for
// the text as written.
func TestOptimizePreservesResults(t *testing.T) {
	for _, q := range []string{
		`SELECT WHEN SAL = 30000 FROM ((TIMESLICE EMP AT {[0,8]}) UNIONMERGE (TIMESLICE EMP AT {[6,19]}))`,
		`SELECT IF SAL = 30000 EXISTS FROM ((TIMESLICE EMP AT {[0,4]}) UNIONMERGE (TIMESLICE EMP AT {[5,99]}))`,
		`TIMESLICE (TIMESLICE EMP AT {[0,9]}) AT {[5,19]}`,
		`TIMESLICE (TIMESLICE (TIMESLICE EMP AT {[0,49]}) AT {[3,99]}) AT {[0,12]}`,
		`TIMESLICE (SELECT WHEN SAL >= 30000 FROM EMP) AT {[0,6]}`,
		`TIMESLICE (SELECT WHEN NAME = 'Mary' FROM EMP) AT {[0,6]}`,
		`TIMESLICE (SELECT WHEN DEPT = 'Toys' FROM (TIMESLICE EMP AT {[0,12]})) AT {[2,9]}`,
		`TIMESLICE (SELECT IF SAL = 30000 EXISTS FROM EMP) AT {[5,9]}`,
		`PROJECT NAME, SAL FROM (TIMESLICE EMP AT {[0,9]})`,
		`SELECT WHEN SAL = 30000 AND DEPT = "Toys" FROM ((TIMESLICE EMP AT {[0,8]}) INTERSECTMERGE (TIMESLICE EMP AT {[2,19]}))`,
		`WHEN (TIMESLICE (SELECT WHEN SAL = 40000 FROM EMP) AT {[0,10]})`,
	} {
		if got, want := planned(t, q), naive(t, q); !sameResult(got, want) {
			t.Errorf("planned %q:\n%s\nwant\n%s", q, got, want)
		}
	}
}

// TestOptimizeNoOpOnSimpleQueries: planning a query no law touches
// changes nothing the caller sees — the expression renders the same
// after Eval, EXPLAIN reports the text as written, and the answer is the
// reference evaluator's.
func TestOptimizeNoOpOnSimpleQueries(t *testing.T) {
	sess := engine.OpenDB(workload.Demo()).NewSession()
	for _, q := range []string{
		`EMP`,
		`SELECT WHEN SAL = 30000 FROM EMP`,
		`EMP JOIN DEPTREL ON DEPT = DNAME`,
		`TIMESLICE SHIP BY SHIPDATE`,
		`SNAPSHOT EMP AT 7`,
	} {
		e, err := hql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		before := e.String()
		got, err := sess.Eval(context.Background(), e)
		if err != nil {
			t.Fatalf("eval %q: %v", q, err)
		}
		if after := e.String(); after != before {
			t.Errorf("Eval rewrote %q into %q", before, after)
		}
		if want := naive(t, q); !sameResult(got, want) {
			t.Errorf("planned %q:\n%s\nwant\n%s", q, got, want)
		}
		out, err := sess.Explain(q)
		if err != nil {
			t.Fatalf("explain %q: %v", q, err)
		}
		if line := strings.SplitN(out, "\n", 2)[0]; line != "query: "+before {
			t.Errorf("explain %q reports %q", q, line)
		}
	}
}
