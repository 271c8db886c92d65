package engine

import (
	"context"

	"repro/internal/hql"
	"repro/internal/obs"
	"repro/internal/storage"
)

// init installs the engine as the storage layer's index builder, so
// stores rebuild their indexes on load.
func init() {
	storage.IndexBuilder = BuildIndexes
}

// evalExpr is the one evaluation path behind Session.Query and
// Session.Eval: consult the plan cache under the expression's
// canonical rendering, else compile and cache — then pin a snapshot of
// the plan's dependencies and execute against it. srcKey, when
// non-empty, is additionally registered as an alias so the raw query
// text hits before its next parse. An expression the planner cannot
// compile falls back to the naive evaluator, which either runs it or
// reports the definitive semantic error, so planning never changes
// observable behavior — only speed.
//
// evalExpr owns the span it is handed: every path ends in finishQuery,
// so engine.queries / engine.query_total_ns count every query and the
// slow log sees every outlier.
func evalExpr(ctx context.Context, e hql.Expr, env hql.Env, srcKey string, sp *obs.Span) (hql.Result, error) {
	key := astCacheKey(e)
	var p *Plan
	if ent := planCache.lookup(key, env, true); ent != nil {
		p = ent.plan
		planCache.addKey(ent, srcKey)
	} else {
		var err error
		if p, err = PlanQuery(e, env); err != nil {
			sp.Mark(obs.StagePlan)
			return evalFallback(ctx, e, env, key, sp)
		}
		planCache.store([]string{srcKey, key}, p)
	}
	sp.Mark(obs.StagePlan)
	snap := pinPlan(ctx, p)
	sp.Mark(obs.StagePin)
	return runPinned(p, snap, key, sp)
}

// runPinned executes p against its snapshot and closes the span.
func runPinned(p *Plan, snap *Snapshot, key string, sp *obs.Span) (hql.Result, error) {
	res, err := p.run(snap, sp)
	finishQuery(sp, key, p, snap, err)
	return res, err
}

// evalFallback runs an unplannable expression through the naive
// evaluator and closes the span, so naive queries are counted and
// slow-logged like planned ones.
func evalFallback(ctx context.Context, e hql.Expr, env hql.Env, key string, sp *obs.Span) (hql.Result, error) {
	mNaiveFallback.Inc()
	res, err := hql.EvalNaiveContext(ctx, e, env)
	sp.Mark(obs.StageExecute)
	finishQuery(sp, key, nil, nil, err)
	return res, err
}
