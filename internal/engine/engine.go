package engine

import (
	"context"
	"errors"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
)

// lifted is a query text as the plan cache sees it: the text, its shape
// and literals (hql.Lift), and the parameters the literals decode to.
// err is nil only when the text lexed and every literal decoded — only
// then may it run on a plan. A Session keeps one and reuses its buffers
// from query to query.
type lifted struct {
	src    string
	shape  []byte
	lits   []hql.Literal
	params []param
	err    error
}

var errNoLex = errors.New("engine: query text does not lex")

func (q *lifted) lift(src string) {
	q.src = src
	var ok bool
	q.shape, q.lits, ok = hql.Lift(src, q.shape[:0], q.lits[:0])
	q.err = errNoLex
	if ok {
		q.params, q.err = decodeParams(q.lits, q.params[:0])
	}
}

// text names the query for the slow log: its shape rendered with this
// execution's literals, or the text as given when it did not lift.
func (q *lifted) text() string {
	if q.err != nil {
		return q.src
	}
	return hql.Render(string(q.shape), q.lits)
}

// evalQuery is the one evaluation path behind Session.Query and
// Session.Eval. A text whose shape has a cached plan fitting its
// parameters runs on that plan at once: neither parser nor planner
// runs. Any other text is compiled — parsed and planned — and the plan
// cached under its shape, then run.
//
// evalQuery owns the span it begins and closes it at its one
// finishQuery, whichever way runQuery returned: engine.queries and
// engine.query_total_ns count every query once, and the slow log sees
// every outlier.
func evalQuery(ctx context.Context, q *lifted, db *DB) (hql.Result, error) {
	sp := obs.Begin()
	res, p, snap, err := runQuery(ctx, q, db, &sp)
	finishQuery(&sp, q, p, snap, err)
	return res, err
}

// runQuery does evalQuery's work, marking each stage on sp, and returns
// the plan and snapshot it ran on (nil for a text that did not compile).
func runQuery(ctx context.Context, q *lifted, db *DB, sp *obs.Span) (hql.Result, *Plan, *Snapshot, error) {
	var p *Plan
	if q.err == nil {
		p = planCache.lookup(q.shape, db.store)
	}
	if p == nil {
		e, fresh, err := compile(q, db.store, sp)
		if e != nil { // it parsed: a miss (parse errors count neither)
			mPlanMisses.Inc()
		}
		if err != nil {
			return hql.Result{}, nil, nil, err
		}
		p = fresh
		planCache.store(string(q.shape), p)
	}
	snap := pinPlan(ctx, db, p, q.params)
	// On a hit one mark covers lookup + pin: splitting them would buy a
	// clock read for a sub-microsecond distinction.
	sp.Mark(obs.StagePin)
	res, err := p.run(snap, sp)
	return res, p, snap, err
}

// compile is the one place a query text becomes a plan — for a cache
// miss, EXPLAIN and EXPLAIN ANALYZE alike. It parses q's text, marking
// parse on sp, rejects a literal that did not decode, and plans the
// expression, type-checked with q's literals, marking plan. Its errors are
// classified once, here: a syntax error is a parse error; an
// undecodable literal, an unknown relation or an ill-typed operator
// is semantic, as the naive evaluator classifies it.
// e is nil only for a parse error.
func compile(q *lifted, env hql.Env, sp *obs.Span) (e hql.Expr, p *Plan, err error) {
	e, err = hql.Parse(q.src)
	sp.Mark(obs.StageParse)
	if err != nil {
		return nil, nil, err
	}
	if q.err != nil {
		return e, nil, hrdmerr.Wrap(hrdmerr.CodeSemantic, q.err)
	}
	p, err = planQuery(e, env, q.params)
	sp.Mark(obs.StagePlan)
	return e, p, hrdmerr.Wrap(hrdmerr.CodeSemantic, err)
}
