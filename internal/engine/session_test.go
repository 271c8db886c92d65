package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/storage"
	"repro/internal/workload"
)

func sessionDB(t *testing.T) *DB {
	t.Helper()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 20, HistoryLen: 100, ChangeEvery: 10, Seed: 3,
	}))
	return OpenDB(st)
}

// TestSessionQuery: the session entry point runs the same planned,
// snapshot-pinned execution every query gets, and a repeat of the text
// — served from the plan cache — returns the same relation.
func TestSessionQuery(t *testing.T) {
	sess := sessionDB(t).NewSession()
	res, err := sess.Query(context.Background(), `SELECT WHEN NAME = 'emp0002' FROM EMP`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Relation == nil || res.Relation.Cardinality() != 1 {
		t.Fatalf("query result = %+v, want 1 tuple", res)
	}
	res2, err := sess.Query(context.Background(), `SELECT WHEN NAME = 'emp0002' FROM EMP`)
	if err != nil {
		t.Fatalf("repeated query: %v", err)
	}
	if !res.Relation.Equal(res2.Relation) {
		t.Fatal("repeated query differs from the first run")
	}
	if _, err := sess.Explain(`SELECT WHEN NAME = 'emp0002' FROM EMP`); err != nil {
		t.Fatalf("explain: %v", err)
	}
}

// TestSessionQueryTypedErrors: parse failures come back as ErrParse
// through the session and canceled contexts as ErrCanceled. The other
// classes are TestErrorClassSameFromEveryEntryPoint's.
func TestSessionQueryTypedErrors(t *testing.T) {
	sess := sessionDB(t).NewSession()
	if _, err := sess.Query(context.Background(), `SELECT garbage !!`); !errors.Is(err, hrdmerr.ErrParse) {
		t.Fatalf("parse error = %v, want ErrParse", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Query(ctx, `EMP`); !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("canceled query error = %v, want ErrCanceled", err)
	}
}

// TestErrorClassSameFromEveryEntryPoint: a text that fails does so with
// one class whichever entry point runs it — Query, Explain, EXPLAIN
// ANALYZE, and the naive evaluator the engine is tested against — and
// fails in compile, so the plan cache keeps nothing for it. A syntax
// error is a parse error; an unknown relation, a literal that does not
// decode, and an ill-typed operator (operands its scheme rule refuses,
// an attribute its operand's scheme lacks) are semantic, never
// internal. msg, when set, is a substring of every entry point's error.
func TestErrorClassSameFromEveryEntryPoint(t *testing.T) {
	sess := OpenDB(workload.Demo()).NewSession()
	naive := func(src string) error {
		e, err := hql.Parse(src)
		if err == nil {
			_, err = hql.EvalNaive(e, workload.Demo())
		}
		return err
	}
	for _, c := range []struct {
		src   string
		class hrdmerr.Code
		msg   string
	}{
		{`NOSUCHREL`, hrdmerr.CodeSemantic, ""},
		{`EMP JOIN NOSUCHREL ON DEPT = GRP`, hrdmerr.CodeSemantic, ""},
		{`TIMESLICE EMP AT WHEN (SELECT WHEN DEPT = 'x' FROM NOSUCHREL)`, hrdmerr.CodeSemantic, ""},
		{`TIMESLICE EMP AT {[9,x]}`, hrdmerr.CodeSemantic, ""},
		{`SELECT WHEN SAL = 99999999999999999999999 FROM EMP`, hrdmerr.CodeParse, ""},
		{`EMP UNIONMERGE DEPTREL`, hrdmerr.CodeSemantic, ""},
		{`EMP JOIN DEPTREL ON NOPE = DNAME`, hrdmerr.CodeSemantic, ""},
		{`TIMESLICE EMP BY NOPE`, hrdmerr.CodeSemantic, ""},
		{`EMP TIMES EMP`, hrdmerr.CodeSemantic, ""},
		{`EMP UNION (PROJECT NAME FROM EMP)`, hrdmerr.CodeSemantic,
			"EMP(NAME* strings discrete {[0,99]}, SAL integers step {[0,99]}, DEPT strings step {[0,99]}) and " +
				"EMP(NAME* strings discrete {[0,99]}) are not union-compatible"},
		{`PROJECT NOPE FROM EMP`, hrdmerr.CodeSemantic, ""},
		{`SELECT WHEN NOPE = 'x' FROM (EMP UNION EMP)`, hrdmerr.CodeSemantic, ""},
		{`SELECT WHEN NOPE = 'x' FROM (RENAME EMP AS b)`, hrdmerr.CodeSemantic, ""},
	} {
		stores := mPlanStores.Load()
		_, qErr := sess.Query(bg, c.src)
		_, xErr := sess.Explain(c.src)
		_, aErr := sess.ExplainAnalyze(bg, c.src)
		for _, ep := range []struct {
			name string
			err  error
		}{
			{"Query", qErr},
			{"Explain", xErr},
			{"ExplainAnalyze", aErr},
			{"EvalNaive", naive(c.src)},
		} {
			if got := hrdmerr.CodeOf(ep.err); got != c.class {
				t.Errorf("%s(%q) = %v (class %d); want class %d", ep.name, c.src, ep.err, got, c.class)
			} else if !strings.Contains(ep.err.Error(), c.msg) {
				t.Errorf("%s(%q) = %v; want it to contain %q", ep.name, c.src, ep.err, c.msg)
			}
		}
		if got := mPlanStores.Load(); got != stores {
			t.Errorf("%q: engine.plancache.stores %d -> %d; want no plan cached", c.src, stores, got)
		}
	}
}

// TestSessionEvalLeavesExpressionAlone: planning applies Section 5's
// laws to plan nodes, never to the caller's AST — a nested slice and a
// slice over σ-WHEN render the same before and after Eval.
func TestSessionEvalLeavesExpressionAlone(t *testing.T) {
	sess := sessionDB(t).NewSession()
	for _, q := range []string{
		`TIMESLICE (TIMESLICE EMP AT {[0,49]}) AT {[20,79]}`,
		`TIMESLICE (SELECT WHEN SAL > 30000 FROM EMP) AT {[10,14]}`,
		`TIMESLICE (SELECT WHEN SAL > 30000 FROM (TIMESLICE EMP AT {[0,49]})) AT {[10,14]}`,
	} {
		e, err := hql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		before := e.String()
		if _, err := sess.Eval(bg, e); err != nil {
			t.Fatalf("eval %q: %v", q, err)
		}
		if after := e.String(); after != before {
			t.Errorf("Eval rewrote the caller's expression:\n%s\nbecame\n%s", before, after)
		}
	}
}

// TestSessionWriteGroup drives the full stage/commit lifecycle: state
// errors outside a group, staged tuples commit atomically and become
// visible to subsequent queries, and duplicate-key groups surface
// ErrConflict with nothing applied.
func TestSessionWriteGroup(t *testing.T) {
	db := sessionDB(t)
	sess := db.NewSession()
	ctx := context.Background()

	if _, err := sess.Stage("EMP", `tuple {[0,9]}`); !errors.Is(err, hrdmerr.ErrState) {
		t.Fatalf("stage outside group error = %v, want ErrState", err)
	}
	if _, err := sess.Commit(ctx); !errors.Is(err, hrdmerr.ErrState) {
		t.Fatalf("commit outside group error = %v, want ErrState", err)
	}

	if err := sess.BeginGroup(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := sess.BeginGroup(); !errors.Is(err, hrdmerr.ErrState) {
		t.Fatalf("nested begin error = %v, want ErrState", err)
	}
	if _, err := sess.Stage("NOPE", `tuple {[0,9]}`); !errors.Is(err, hrdmerr.ErrBadRequest) {
		t.Fatalf("unknown relation error = %v, want ErrBadRequest", err)
	}
	if _, err := sess.Stage("EMP", `this is not a tuple`); !errors.Is(err, hrdmerr.ErrBadRequest) {
		t.Fatalf("bad spec error = %v, want ErrBadRequest", err)
	}
	spec := `tuple {[0,9]}; NAME = "zz_new" @ {[0,9]}; SAL = 1234 @ {[0,9]}; DEPT = "Toys" @ {[0,9]}`
	n, err := sess.Stage("EMP", spec)
	if err != nil || n != 1 {
		t.Fatalf("stage = (%d, %v), want (1, nil)", n, err)
	}
	if !sess.InGroup() || sess.Staged() != 1 {
		t.Fatalf("session state = (%v, %d), want (true, 1)", sess.InGroup(), sess.Staged())
	}
	if n, err := sess.Commit(ctx); err != nil || n != 1 {
		t.Fatalf("commit = (%d, %v), want (1, nil)", n, err)
	}
	res, err := sess.Query(ctx, `SELECT WHEN NAME = 'zz_new' FROM EMP`)
	if err != nil || res.Relation == nil || res.Relation.Cardinality() != 1 {
		t.Fatalf("committed tuple not visible: res=%+v err=%v", res, err)
	}

	// A group colliding with an existing key on a contradicting history
	// must fail as ErrConflict and leave the store unchanged.
	if err := sess.BeginGroup(); err != nil {
		t.Fatalf("begin 2: %v", err)
	}
	if _, err := sess.Stage("EMP", `tuple {[0,9]}; NAME = "zz_new" @ {[0,9]}; SAL = 9 @ {[0,9]}; DEPT = "X" @ {[0,9]}`); err != nil {
		t.Fatalf("stage conflict tuple: %v", err)
	}
	if _, err := sess.Commit(ctx); !errors.Is(err, hrdmerr.ErrConflict) {
		t.Fatalf("conflicting commit error = %v, want ErrConflict", err)
	}
	if sess.InGroup() {
		t.Fatal("failed commit left the group open")
	}

	// Abort discards without applying.
	if err := sess.BeginGroup(); err != nil {
		t.Fatalf("begin 3: %v", err)
	}
	if _, err := sess.Stage("EMP", `tuple {[0,9]}; NAME = "zz_gone" @ {[0,9]}; SAL = 1 @ {[0,9]}; DEPT = "X" @ {[0,9]}`); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if !sess.Abort() {
		t.Fatal("abort reported no group")
	}
	res, err = sess.Query(ctx, `SELECT WHEN NAME = 'zz_gone' FROM EMP`)
	if err != nil || res.Relation == nil || res.Relation.Cardinality() != 0 {
		t.Fatalf("aborted tuple visible: res=%+v err=%v", res, err)
	}
}

// TestSessionEvalAndIntrospection: Eval runs a pre-parsed expression
// through the same pinned execution Query uses, ExplainAnalyze renders
// an annotated plan, and the small accessors (DB, Store, String)
// report the session's identity.
func TestSessionEvalAndIntrospection(t *testing.T) {
	db := sessionDB(t)
	sess := db.NewSession()
	ctx := context.Background()

	if sess.DB() != db {
		t.Fatal("DB() is not the opening DB")
	}
	if db.Store() == nil {
		t.Fatal("Store() is nil")
	}

	const src = `SELECT WHEN NAME = 'emp0002' FROM EMP`
	e, err := hql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want, err := sess.Query(ctx, src)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	got, err := sess.Eval(ctx, e)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !want.Relation.Equal(got.Relation) {
		t.Fatal("Eval differs from Query on the same expression")
	}

	out, err := sess.ExplainAnalyze(ctx, src)
	if err != nil || !strings.Contains(out, "rows") {
		t.Fatalf("ExplainAnalyze = (%q, %v), want an annotated plan", out, err)
	}

	if s := sess.String(); !strings.Contains(s, "session(mem") {
		t.Fatalf("String() = %q, want a mem-store session identity", s)
	}
}

// TestDBLifecycle: Checkpoint and Close are no-ops on in-memory
// stores, Close is idempotent, and a closed DB refuses checkpoints
// with ErrState.
func TestDBLifecycle(t *testing.T) {
	db := sessionDB(t)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint in-memory: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, hrdmerr.ErrState) {
		t.Fatalf("checkpoint after close error = %v, want ErrState", err)
	}
}

// TestSlowLogRecordsWhatRanAgainstWhat: a slow-log entry's fingerprint
// names the plan that ran and the relation versions it was pinned at,
// and its text is the query that ran: two literals of one shape, the
// second served by the first's cached plan, each log their own.
func TestSlowLogRecordsWhatRanAgainstWhat(t *testing.T) {
	prev := slowLog.Threshold()
	slowLog.SetThreshold(0)
	defer slowLog.SetThreshold(prev)
	sess := sessionDB(t).NewSession()
	for i, name := range []string{"emp0002", "emp0003"} {
		h0, _, _ := PlanCacheStats()
		if _, err := sess.Query(context.Background(), `SELECT WHEN NAME = '`+name+`' FROM EMP`); err != nil {
			t.Fatal(err)
		}
		if h1, _, _ := PlanCacheStats(); i > 0 && h1 != h0+1 {
			t.Fatalf("%s: not served by the shape's cached plan (hits %d -> %d)", name, h0, h1)
		}
		got := slowLog.Last(1)[0]
		text := `SELECT WHEN NAME = "` + name + `" FROM EMP`
		if got.Query != text || !strings.HasPrefix(got.Fingerprint, text+" @ epoch ") || !strings.HasSuffix(got.Fingerprint, "(EMP@20)") {
			t.Fatalf("slow-log entry = %+v, want fingerprint %q @ epoch N (EMP@20)", got, text)
		}
	}
}

// TestSharedShapeConcurrentLiterals: eight sessions run one query shape
// with eight keys at once, all through one cached plan, and each must
// get its own row — a literal is bound per execution, never through the
// plan they share. Run under -race by CI.
func TestSharedShapeConcurrentLiterals(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	db := sessionDB(t)
	if _, err := db.NewSession().Query(bg, `SELECT WHEN NAME = 'emp0000' FROM EMP`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, name := db.NewSession(), fmt.Sprintf("emp%04d", g)
			for range 100 {
				res, err := s.Query(bg, `SELECT WHEN NAME = '`+name+`' FROM EMP`)
				if err != nil {
					errs <- err
					return
				}
				if res.Relation.Cardinality() != 1 || !strings.Contains(res.Relation.String(), `"`+name+`"`) {
					errs <- fmt.Errorf("%s: got\n%s", name, res.Relation)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, misses, _ := PlanCacheStats(); misses != 1 {
		t.Errorf("%d misses, want the one that cached the shape's plan", misses)
	}
}

// TestInvalidLiteralTakesMissPath: a literal that does not decode never
// binds to its shape's cached plan; the text takes the miss path and
// fails with the class it always had — a malformed lifespan semantic,
// an out-of-range integer a parse error — and nothing more is cached.
func TestInvalidLiteralTakesMissPath(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	sess := sessionDB(t).NewSession()
	for _, c := range []struct {
		good, bad string
		code      hrdmerr.Code
	}{
		{`TIMESLICE EMP AT {[0,9]}`, `TIMESLICE EMP AT {[9,x]}`, hrdmerr.CodeSemantic},
		{`SELECT WHEN SAL = 1 FROM EMP`, `SELECT WHEN SAL = 99999999999999999999 FROM EMP`, hrdmerr.CodeParse},
	} {
		if _, err := sess.Query(bg, c.good); err != nil {
			t.Fatal(err)
		}
		h0, _, n0 := PlanCacheStats()
		if _, err := sess.Query(bg, c.bad); hrdmerr.CodeOf(err) != c.code {
			t.Errorf("%s: error %v, want class %d", c.bad, err, c.code)
		}
		if h1, _, n1 := PlanCacheStats(); h1 != h0 || n1 != n0 {
			t.Errorf("%s: hits %d -> %d, shapes %d -> %d; want neither to move", c.bad, h0, h1, n0, n1)
		}
	}
}
