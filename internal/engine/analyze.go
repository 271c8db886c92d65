package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/hql"
	"repro/internal/obs"
)

// EXPLAIN ANALYZE: execute the query with a per-operator profiler
// attached to its snapshot and render the plan tree annotated with
// actuals — rows produced, wall time, self time (wall minus children),
// index lookups — followed by the lifecycle stage breakdown, the
// result summary and the pinned snapshot. Unlike plain EXPLAIN, the
// query genuinely runs (and its side effects on the registry — query
// counts, histograms, slow-log entries — are real); like EXPLAIN, the
// plan cache is neither consulted nor populated, so the rendered tree
// always reflects a fresh compilation of the submitted text.

// analysis is one executed, profiled query — the data behind the
// rendered EXPLAIN ANALYZE output, kept separate so tests can assert
// on the numbers without parsing text. text is the canonical rendering
// of the expression that ran.
type analysis struct {
	text string
	plan *Plan
	prof *profiler
	sp   obs.Span
	snap *Snapshot
	res  hql.Result
}

// analyzeQuery is the execution half of Session.ExplainAnalyze:
// compile, pin and run like any query, with a profiler attached to the
// snapshot — the same operator code as an unprofiled query; the
// profiler only observes. A text that does not compile fails with the
// error, and the class, Query gives it. Like evalQuery, it closes its
// span at one finishQuery.
func analyzeQuery(ctx context.Context, src string, db *DB) (*analysis, error) {
	q := &lifted{}
	q.lift(src)
	sp := obs.Begin()
	a, p, snap, err := runAnalyzed(ctx, q, db, &sp)
	finishQuery(&sp, q, p, snap, err)
	return a, err
}

// runAnalyzed does analyzeQuery's work, marking each stage on sp, and
// returns the plan and snapshot it ran on (nil where it stopped short).
func runAnalyzed(ctx context.Context, q *lifted, db *DB, sp *obs.Span) (*analysis, *Plan, *Snapshot, error) {
	e, p, err := compile(q, db.store, sp)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := pinPlan(ctx, db, p, q.params)
	sp.Mark(obs.StagePin)
	snap.prof = newProfiler()
	res, err := p.run(snap, sp)
	if err != nil {
		return nil, p, snap, err
	}
	return &analysis{text: e.String(), plan: p, prof: snap.prof, sp: *sp, snap: snap, res: res}, p, snap, nil
}

// rootStats returns the root operator's measured execution.
func (a *analysis) rootStats() *opStats {
	return a.prof.ops[a.plan.root]
}

// selfTime is wall time minus the children's wall time, clamped at
// zero (clock granularity can make the difference marginally
// negative). Children run inside their parent's measurement, so the
// subtraction is the operator's own work.
func (a *analysis) selfTime(n node) time.Duration {
	self := a.prof.ops[n].wall
	for _, k := range n.children() {
		self -= a.prof.ops[k].wall
	}
	if self < 0 {
		return 0
	}
	return self
}

// render produces the annotated tree plus the stage, result and
// snapshot trailer lines.
func (a *analysis) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", a.text)
	a.plan.render(&b, a.snap, func(n node) {
		// A successful run executes every node of the tree exactly once.
		st := a.prof.ops[n]
		fmt.Fprintf(&b, "  (actual: rows=%d time=%s self=%s", st.rows, st.wall, a.selfTime(n))
		if lk := st.lookups.Load(); lk > 0 {
			fmt.Fprintf(&b, " lookups=%d", lk)
		}
		if st.par != nil {
			fmt.Fprintf(&b, " degree=%d partitions=%d", st.par.degree, st.par.parts)
		}
		b.WriteString(")")
	})
	b.WriteString("stages:")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		fmt.Fprintf(&b, " %s=%s", obs.StageName(st), a.sp.StageDur(st))
	}
	fmt.Fprintf(&b, " total=%s\n", a.sp.Total())
	fmt.Fprintf(&b, "result: %s\n", a.resultSummary())
	fmt.Fprintf(&b, "snapshot: %s", a.snap)
	return b.String()
}

// resultSummary describes whichever sort the result carries, with its
// cardinality where it has one.
func (a *analysis) resultSummary() string {
	switch {
	case a.res.Relation != nil:
		return fmt.Sprintf("relation %s (%d tuples)", a.res.Relation.Scheme().Name, a.res.Relation.Cardinality())
	case a.res.Lifespan != nil:
		return fmt.Sprintf("lifespan %s", a.res.Lifespan)
	case a.res.Snapshot != nil:
		return fmt.Sprintf("snapshot relation %s (%d tuples)", a.res.Snapshot.Scheme().Name, a.res.Snapshot.Cardinality())
	default:
		return "empty"
	}
}
