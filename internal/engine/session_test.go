package engine

import (
	"context"
	"errors"
	"strings"
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
// snapshot-pinned execution every query gets, with and without the
// session's optimizer toggle.
func TestSessionQuery(t *testing.T) {
	sess := sessionDB(t).NewSession()
	res, err := sess.Query(context.Background(), `SELECT WHEN NAME = 'emp0002' FROM EMP`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Relation == nil || res.Relation.Cardinality() != 1 {
		t.Fatalf("query result = %+v, want 1 tuple", res)
	}
	sess.SetOptimize(true)
	res2, err := sess.Query(context.Background(), `SELECT WHEN NAME = 'emp0002' FROM EMP`)
	if err != nil {
		t.Fatalf("optimized query: %v", err)
	}
	if !res.Relation.Equal(res2.Relation) {
		t.Fatal("optimized query differs from plain")
	}
	if _, err := sess.Explain(`SELECT WHEN NAME = 'emp0002' FROM EMP`); err != nil {
		t.Fatalf("explain: %v", err)
	}
}

// TestSessionQueryTypedErrors: parse failures come back as ErrParse
// through the session, canceled contexts as ErrCanceled.
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
// through the same pinned execution Query uses (honoring the session's
// optimizer setting), ExplainAnalyze renders an annotated plan, and
// the small accessors (DB, Store, Optimize, String) report the
// session's identity.
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
	if sess.Optimize() {
		t.Fatal("optimizer on by default")
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
	sess.SetOptimize(true)
	if !sess.Optimize() {
		t.Fatal("SetOptimize(true) did not stick")
	}
	got, err = sess.Eval(ctx, e)
	if err != nil {
		t.Fatalf("optimized eval: %v", err)
	}
	if !want.Relation.Equal(got.Relation) {
		t.Fatal("optimized Eval differs from plain Query")
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
// names the plan that ran and the relation versions it was pinned at.
func TestSlowLogRecordsWhatRanAgainstWhat(t *testing.T) {
	prev := slowLog.Threshold()
	slowLog.SetThreshold(0)
	defer slowLog.SetThreshold(prev)
	db := sessionDB(t)
	if _, err := db.NewSession().Query(context.Background(), `SELECT WHEN NAME = 'emp0002' FROM EMP`); err != nil {
		t.Fatal(err)
	}
	got := slowLog.Last(1)[0]
	const text = `SELECT WHEN NAME = "emp0002" FROM EMP`
	if got.Query != text || !strings.HasPrefix(got.Fingerprint, text+" @ epoch ") || !strings.HasSuffix(got.Fingerprint, "(EMP@20)") {
		t.Fatalf("slow-log entry = %+v, want fingerprint %q @ epoch N (EMP@20)", got, text)
	}
}
