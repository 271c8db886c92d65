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

// pinRetries bounds the optimistic plan-then-pin loop: each attempt
// compiles (or fetches) a plan and pins a snapshot of its
// dependencies; a writer publishing between the two forces a retry.
// After the budget is spent, the engine compiles and pins under the
// publish lock in one critical section, which cannot lose the race —
// so a query never livelocks behind a continuous writer.
const pinRetries = 3

// evalExpr is the one evaluation path behind Session.Query and
// Session.Eval: consult the plan cache under the expression's
// canonical rendering, else compile and cache — then pin a snapshot of
// the plan's dependencies and execute only when the pinned versions
// match the versions the plan was compiled against, so plan-time
// constants (index candidate sets, WHEN sub-query lifespans) describe
// exactly the state the query reads. Lost races against writers retry,
// then resolve under the publish lock. srcKey, when non-empty, is
// additionally registered as an alias so the raw query text hits
// before its next parse. An expression the planner cannot compile
// falls back to the naive evaluator, which either runs it or reports
// the definitive semantic error, so planning never changes observable
// behavior — only speed.
//
// evalExpr owns the span it is handed: every path ends in finishQuery,
// so engine.queries / engine.query_total_ns count every query and the
// slow log sees every outlier.
func evalExpr(ctx context.Context, e hql.Expr, env hql.Env, srcKey string, sp *obs.Span) (hql.Result, error) {
	key := astCacheKey(e)
	for try := 0; try < pinRetries; try++ {
		p, cached := planCache.lookup(key, env, try == 0)
		var err error
		if !cached {
			p, err = PlanQuery(e, env)
		}
		sp.Mark(obs.StagePlan)
		if err != nil {
			return evalFallback(ctx, e, env, key, sp)
		}
		snap, pinned := pinPlan(ctx, p)
		sp.Mark(obs.StagePin)
		if pinned {
			if cached {
				planCache.addKey(p, srcKey)
			} else {
				planCache.store([]string{srcKey, key}, p)
			}
			return runPinned(p, snap, key, sp)
		}
		// A dep moved between planning (or the cache's fence) and the
		// pin; the next lookup drops the stale entry.
		mPinRetries.Inc()
	}
	// A continuous writer kept publishing between plan and pin; compile
	// and pin in one critical section, which cannot fail.
	mPinExclusive.Inc()
	p, snap, err := pinPlanExclusive(ctx, func() (*Plan, error) { return PlanQuery(e, env) })
	sp.Mark(obs.StagePin)
	if err != nil {
		return evalFallback(ctx, e, env, key, sp)
	}
	planCache.store([]string{srcKey, key}, p)
	return runPinned(p, snap, key, sp)
}

// runPinned executes p against its verified snapshot and closes the
// span.
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
