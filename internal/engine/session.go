package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
	"repro/internal/storage"
)

// DB is the explicit handle to one historical database: a storage.Store
// plus shared lifecycle (checkpoint, close). It replaces the old idiom
// of passing a bare *storage.Store (or any hql.Env) around cmd/ code:
// every entry point — CLI shell, benchmark harness, server — opens a DB
// once and creates one Session per client/loop from it. The process-
// wide pieces (plan cache, metrics registry) stay shared
// underneath, which is exactly what a multi-session server wants: two
// sessions issuing the same query share one cached plan.
//
// DB methods are safe for concurrent use.
type DB struct {
	store *storage.Store
	// workers is the degree of parallelism every session of this DB
	// executes parallel plan operators with; at least 1.
	workers int

	mu     sync.Mutex
	closed bool
}

// DBOptions configures OpenDBOptions. The zero value matches OpenDB.
type DBOptions struct {
	// Workers is the degree of parallelism for this DB's queries:
	// 1 forces sequential execution, below 1 means GOMAXPROCS as of
	// the open.
	Workers int
}

// OpenDB wraps an existing store — in-memory or durable — as a DB.
func OpenDB(st *storage.Store) *DB {
	return OpenDBOptions(st, DBOptions{})
}

// OpenDBOptions is OpenDB with explicit options — the `-workers` flag
// of the CLI and server lands here. The degree is the DB's alone: a
// query runs with the degree of the DB its session came from.
func OpenDBOptions(st *storage.Store, o DBOptions) *DB {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return &DB{store: st, workers: w}
}

// Store exposes the underlying store for administrative paths (save,
// merge, text dump); query and mutation traffic goes through Sessions.
func (db *DB) Store() *storage.Store { return db.store }

// NewSession returns a fresh session over this DB. Sessions are cheap;
// create one per connection or per worker goroutine.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// Checkpoint makes the durable image current (a no-op for in-memory
// stores), so a drain can bound recovery replay before exit.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return hrdmerr.New(hrdmerr.CodeState, "db is closed")
	}
	if !db.store.Durable() {
		return nil
	}
	return db.store.Checkpoint()
}

// Close checkpoints and closes a durable store; idempotent, and a
// no-op for in-memory stores.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if !db.store.Durable() {
		return nil
	}
	return db.store.Close()
}

// Session is one client's handle on a DB and the engine's only query
// surface: queries with the engine's pinned-snapshot execution, and an
// optional staged write group for atomic multi-relation mutations.
// Every error a Session returns carries an hrdmerr classification, so
// callers (the CLI's error[CODE] line, the server's wire envelope)
// never parse message strings.
//
// A Session is a single-goroutine object, like the core.WriteGroup it
// stages into: use one per connection. Distinct sessions over one DB
// may run fully concurrently — reads pin snapshots, commits serialize
// on the publish lock.
type Session struct {
	db     *DB
	group  *core.WriteGroup
	staged int
	q      lifted // the current query text, its buffers reused
}

// DB returns the database this session was created from.
func (s *Session) DB() *DB { return s.db }

// begin is the shared preamble of the executing entry points: fail
// fast, with the typed error, on a context that is already done.
func (s *Session) begin(ctx context.Context) error {
	return hrdmerr.FromContext(ctx.Err())
}

// Query parses, plans and executes src under ctx; a text that does not
// compile fails with a parse or semantic error. A plan cached under the
// query's shape — any earlier text differing only in whitespace,
// keyword case or literal values — short-circuits both parser and
// planner and runs with this text's literals, and stays cached across
// writes: a plan holds no data. Execution is
// snapshot-isolated: every scan, index probe and WHEN sub-query of the
// plan reads one pinned database state, however many relations it
// touches. Cancellation and deadlines abort execution with a typed
// hrdmerr error (ErrCanceled / ErrDeadline) within one batch
// (cancelBatch tuples) instead of running the scan to completion; a
// Background (uncancellable) context never reads a context while
// executing.
//
// Every path carries an obs.Span and lands in finishQuery. The cached
// fast path pays four clock reads (span start; pin, execute and
// materialize marks) plus finishQuery's atomics — measured against
// BenchmarkRunCachedKeyEq to stay inside the ~3% overhead budget.
func (s *Session) Query(ctx context.Context, src string) (hql.Result, error) {
	if err := s.begin(ctx); err != nil {
		return hql.Result{}, err
	}
	s.q.lift(src)
	return evalQuery(ctx, &s.q, s.db)
}

// Eval runs an already-parsed expression — the AST-level counterpart of
// Query for callers that parse once and run many times — exactly as
// Query runs its canonical rendering, cached under that text's shape.
// The expression is only read, never rewritten.
func (s *Session) Eval(ctx context.Context, e hql.Expr) (hql.Result, error) {
	if err := ctx.Err(); err != nil {
		return hql.Result{}, hrdmerr.FromContext(err)
	}
	return s.Query(ctx, e.String())
}

// Explain parses and plans src and renders the chosen physical plan
// without executing it. It pins a snapshot exactly as a run would and
// each operator describes itself against that pin and src's literals —
// index operators probe their indexes to report the candidates a run
// would touch — but no operator runs: a WHEN sub-query in an AT or
// DURING position prints as a sub-plan below the operator it
// parameterises. The output ends with the pinned snapshot — the
// database epoch plus each dependency at its pinned version — and
// whether a plan for src's shape is cached (EXPLAIN itself neither reads from nor populates the
// cache).
func (s *Session) Explain(src string) (string, error) {
	env := s.db.store
	s.q.lift(src)
	sp := obs.Begin() // EXPLAIN records no span: compile's marks are dropped
	e, p, err := compile(&s.q, env, &sp)
	if err != nil {
		return "", err
	}
	snap := pinPlan(context.Background(), s.db, p, s.q.params)
	status := "miss (first run compiles and caches the plan)"
	if planCache.peek(s.q.shape, env) {
		status = "hit (repeated runs skip parse and plan)"
	}
	hits, misses, entries := PlanCacheStats()
	return fmt.Sprintf("query: %s\n%s\nsnapshot: %s\nplan-cache: %s [%d hits / %d misses, %d cached]",
		e.String(), p.explain(snap), snap, status, hits, misses, entries), nil
}

// ExplainAnalyze executes src under ctx with per-operator profiling
// and renders the annotated plan (see analyze.go). The profiled
// execution honors cancellation and deadlines exactly as Query does,
// since EXPLAIN ANALYZE genuinely runs the query.
func (s *Session) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	if err := s.begin(ctx); err != nil {
		return "", err
	}
	a, err := analyzeQuery(ctx, src, s.db)
	if err != nil {
		return "", err
	}
	return a.render(), nil
}

// BeginGroup opens a staged write group. ErrState if one is already
// open — groups do not nest.
func (s *Session) BeginGroup() error {
	if s.group != nil {
		return hrdmerr.New(hrdmerr.CodeState, "write group already open (commit or abort it first)")
	}
	s.group = core.NewWriteGroup()
	s.staged = 0
	return nil
}

// Stage parses one tuple spec (storage.ParseTuple's format) against
// relation rel's scheme and stages it into the open group with
// history-merging semantics. Returns the number of tuples staged so
// far. ErrState without an open group; ErrBadRequest for an unknown
// relation or an unparsable spec.
func (s *Session) Stage(rel, spec string) (int, error) {
	if s.group == nil {
		return 0, hrdmerr.New(hrdmerr.CodeState, "no open write group (begin_group first)")
	}
	r, ok := s.db.store.Get(rel)
	if !ok {
		return s.staged, hrdmerr.New(hrdmerr.CodeBadRequest, "unknown relation %s", rel)
	}
	t, err := storage.ParseTuple(r.Scheme(), spec)
	if err != nil {
		return s.staged, hrdmerr.Wrap(hrdmerr.CodeBadRequest, err)
	}
	s.group.InsertMerging(r, t)
	s.staged++
	return s.staged, nil
}

// Commit atomically publishes the open group: every staged tuple
// lands, across however many relations, in one version bump and one
// epoch tick — or none of it does. Validation failures (duplicate
// keys, contradicting histories) surface as ErrConflict with the
// group discarded either way, matching core.WriteGroup's
// discard-after-commit contract. Returns the number of tuples
// committed.
func (s *Session) Commit(ctx context.Context) (int, error) {
	if s.group == nil {
		return 0, hrdmerr.New(hrdmerr.CodeState, "no open write group (begin_group first)")
	}
	if err := ctx.Err(); err != nil {
		return 0, hrdmerr.FromContext(err)
	}
	g, n := s.group, s.staged
	s.group, s.staged = nil, 0
	if err := g.Commit(); err != nil {
		return 0, hrdmerr.Wrap(hrdmerr.CodeConflict, err)
	}
	return n, nil
}

// Abort discards the open group without applying anything; reports
// whether there was a group to discard.
func (s *Session) Abort() bool {
	had := s.group != nil
	s.group, s.staged = nil, 0
	return had
}

// InGroup reports whether a write group is open.
func (s *Session) InGroup() bool { return s.group != nil }

// Staged reports how many tuples the open group holds.
func (s *Session) Staged() int { return s.staged }

// String identifies the session's store for diagnostics.
func (s *Session) String() string {
	kind := "mem"
	if s.db.store.Durable() {
		kind = "durable:" + s.db.store.Dir()
	}
	return fmt.Sprintf("session(%s, %d relations)", kind, len(s.db.store.Names()))
}
