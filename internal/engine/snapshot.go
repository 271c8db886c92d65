package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hrdmerr"
)

// Snapshot is the consistent database state one query executes
// against: the epoch and one pinned version of every relation the
// plan depends on. It is captured by core.Pin under the global
// publish lock — a short exclusive section — after which execution
// reads the pinned tuple slices with zero locks: appends by
// concurrent writers never touch a pinned prefix and merges
// copy-on-write, so multi-relation plans (joins, set operators)
// cannot observe relation A before a writer's batch and relation B
// after it. Every data-dependent step of a query — scans, index
// probes, WHEN sub-queries in lifespan positions — goes through its
// Snapshot; there is no other way to execute a plan, and a relation
// the plan reads but the pin lacks is an internal error, never a live
// read.
type Snapshot struct {
	Epoch uint64
	// deps is the plan's dependency list (sorted by name) and vers the
	// version pinned for each, index for index. A plan reads one or two
	// relations, so a scan finds a version faster than a map would and
	// costs no allocation beyond core.Pin's own slice.
	deps []planDep
	vers []core.RelVersion
	// params binds the plan's slots for this execution: the values of
	// the literals of the text that runs (see params.go).
	params []param
	// prof, when non-nil, collects per-operator actuals for EXPLAIN
	// ANALYZE; normal execution leaves it nil and pays one nil check
	// per operator.
	prof *profiler
	// ctx, when non-nil, is the query's cancellation context: the
	// executor's loop (apply) checks it every cancelBatch tuples, so a
	// canceled or deadline-expired query aborts within one batch
	// instead of running its scan to completion. It is nil for
	// uncancellable queries (context.Background callers), which then
	// never read a context.
	ctx context.Context
	// workers is the degree of parallelism the query's parallel
	// operators may use: its DB's, taken at pin time. It is execution
	// state, not plan state: plans stay degree-agnostic so DBs with
	// different settings share cached plans. 1 means sequential.
	workers int
}

// cancelBatch is the cancellation granularity: the number of tuples an
// operator (or a parallel worker) processes between context checks.
// Small enough that a canceled scan stops within a few hundred tuple
// touches, large enough that the per-tuple cost is a mask test.
const cancelBatch = 256

// canceled is the query's one cancellation check: the typed
// ErrCanceled/ErrDeadline once the context is done, nil before — and
// always nil for an uncancellable query. It only reads the immutable
// ctx field, so parallel workers call it concurrently.
func (s *Snapshot) canceled() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return hrdmerr.FromContext(err)
	}
	return nil
}

// pinPlan captures a snapshot of p's dependency relations for one
// execution under ctx on db, binding its slots to ps. It cannot fail:
// a plan holds no data a writer could have outdated between planning
// and the pin.
func pinPlan(ctx context.Context, db *DB, p *Plan, ps []param) *Snapshot {
	rels := make([]*core.Relation, len(p.deps))
	for i, d := range p.deps {
		rels[i] = d.rel
	}
	epoch, vers := core.Pin(rels...)
	s := &Snapshot{Epoch: epoch, deps: p.deps, vers: vers, params: ps, workers: db.workers}
	s.attachCtx(ctx)
	return s
}

// attachCtx arms the snapshot's cancellation checks. A context that
// can never be canceled (Background and friends report a nil Done
// channel) is dropped, so uncancellable queries keep the zero-check
// fast path.
func (s *Snapshot) attachCtx(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
}

// String renders the pinned state for EXPLAIN and the slow log: the
// epoch and each dependency at its pinned version.
func (s *Snapshot) String() string {
	parts := make([]string, 0, len(s.deps))
	for i, d := range s.deps {
		parts = append(parts, fmt.Sprintf("%s@%d", d.name, s.vers[i].Version()))
	}
	return fmt.Sprintf("epoch %d (%s)", s.Epoch, strings.Join(parts, ", "))
}

// pinned returns the version of r this snapshot pinned. Every relation
// a plan reads is one of its dependencies, so a miss is a planner bug.
func (s *Snapshot) pinned(r *core.Relation) (core.RelVersion, error) {
	for i, d := range s.deps {
		if d.rel == r {
			return s.vers[i], nil
		}
	}
	return core.RelVersion{}, hrdmerr.New(hrdmerr.CodeInternal, "engine: relation %s is not part of the pinned snapshot", r.Scheme().Name)
}

// card is r's pinned cardinality, for EXPLAIN.
func (s *Snapshot) card(r *core.Relation) int {
	v, _ := s.pinned(r)
	return v.Cardinality()
}
