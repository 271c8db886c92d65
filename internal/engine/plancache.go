package engine

import (
	"container/list"
	"sync"

	"repro/internal/hql"
	"repro/internal/obs"
)

// Plan-cache metrics live in the process-wide registry so `\metrics`,
// the server's metrics op and the end-to-end benchmark see them
// alongside every other engine counter; PlanCacheStats below stays as a thin typed
// view over the same numbers. Invalidations count fence failures
// (a dependency name resolves to another relation), evictions count
// LRU overflow — the distinction tells an operator
// whether the cache is too small or the store is being replaced.
var (
	mPlanHits          = obs.Default.Counter("engine.plancache.hits")
	mPlanMisses        = obs.Default.Counter("engine.plancache.misses")
	mPlanStores        = obs.Default.Counter("engine.plancache.stores")
	mPlanInvalidations = obs.Default.Counter("engine.plancache.invalidations")
	mPlanEvictions     = obs.Default.Counter("engine.plancache.evictions")
)

func init() {
	obs.Default.GaugeFunc("engine.plancache.entries", func() int64 {
		planCache.mu.Lock()
		defer planCache.mu.Unlock()
		return int64(planCache.lru.Len())
	})
}

// The plan cache memoizes compiled plans by query shape (hql.Lift), so
// a text whose shape was seen before — the same query with other
// literals — skips parsing and planning and runs with its own
// parameters. A plan holds no data, so writes do not invalidate it —
// growth included: each run prices its choices at its pin. It is
// fenced by its dependencies' identity: each name must still resolve
// to the relation the plan was compiled over (a swapped environment,
// e.g. the CLI's \load, fails this and replans rather than serving
// results from the old store).

// cacheEntry is one shape's cached plan. elem is nil once the entry has
// left the cache.
type cacheEntry struct {
	shape string
	plan  *Plan
	elem  *list.Element
}

type planCacheT struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of *cacheEntry; front = most recently used
}

// maxPlanCache bounds the cache: an LRU of query shapes, whose footprint
// tracks the distinct-shape working set, not the database.
const maxPlanCache = 256

var planCache = &planCacheT{entries: make(map[string]*cacheEntry), lru: list.New()}

// planFor returns shape's entry and its plan, moving it to the front of
// the LRU when touch.
func (pc *planCacheT) planFor(shape []byte, touch bool) (*cacheEntry, *Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.entries[string(shape)]
	if ent == nil {
		return nil, nil
	}
	if touch {
		pc.lru.MoveToFront(ent.elem)
	}
	return ent, ent.plan
}

// lookup returns the cached plan for shape if it still validates
// against env — a hit, counted here — or nil. A plan whose dependency
// fence fails is dropped.
func (pc *planCacheT) lookup(shape []byte, env hql.Env) *Plan {
	ent, p := pc.planFor(shape, true)
	if p == nil {
		return nil
	}
	if !p.valid(env) {
		pc.mu.Lock()
		if ent.elem != nil && ent.plan == p { // neither evicted nor replaced since
			pc.removeLocked(ent)
		}
		pc.mu.Unlock()
		mPlanInvalidations.Inc()
		return nil
	}
	mPlanHits.Inc()
	return p
}

// peek reports whether lookup would hit, without touching LRU order,
// the counters or a stale plan — EXPLAIN's read-only probe.
func (pc *planCacheT) peek(shape []byte, env hql.Env) bool {
	_, p := pc.planFor(shape, false)
	return p != nil && p.valid(env)
}

// store caches p under shape — replacing its plan, so two goroutines
// racing one miss leave the later plan — and evicts
// least-recently-used shapes beyond the bound.
func (pc *planCacheT) store(shape string, p *Plan) {
	mPlanStores.Inc()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.entries[shape]
	if ent == nil {
		ent = &cacheEntry{shape: shape}
		ent.elem = pc.lru.PushFront(ent)
		pc.entries[shape] = ent
	} else {
		pc.lru.MoveToFront(ent.elem)
	}
	ent.plan = p
	for pc.lru.Len() > maxPlanCache {
		pc.removeLocked(pc.lru.Back().Value.(*cacheEntry))
		mPlanEvictions.Inc()
	}
}

func (pc *planCacheT) removeLocked(ent *cacheEntry) {
	if pc.entries[ent.shape] == ent { // not a successor after a reset
		delete(pc.entries, ent.shape)
	}
	pc.lru.Remove(ent.elem)
	ent.elem = nil
}

// PlanCacheStats reports the cache's cumulative hit and miss counts and
// its current size in shapes — a typed view over the registry counters
// engine.plancache.{hits,misses} plus the live entry count.
func PlanCacheStats() (hits, misses uint64, entries int) {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	return mPlanHits.Load(), mPlanMisses.Load(), planCache.lru.Len()
}

// InvalidateStalePlans drops every cached plan that no longer
// validates against env — one of its dependencies resolves to a
// different relation (a swapped store) — and reports how many plans
// were dropped. Plans whose dependencies still resolve identically
// survive, so a store swap that shares relations with its predecessor
// (or a reload of unrelated relations) keeps the working set warm: the
// precise replacement for clearing the cache wholesale on swap.
func InvalidateStalePlans(env hql.Env) (dropped int) {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	var next *list.Element
	for e := planCache.lru.Front(); e != nil; e = next {
		next = e.Next()
		if ent := e.Value.(*cacheEntry); !ent.plan.valid(env) {
			planCache.removeLocked(ent)
			mPlanInvalidations.Inc()
			dropped++
		}
	}
	return dropped
}

// ResetPlanCache empties the plan cache and zeroes its hit/miss
// counters (in the registry — the handles stay valid). The end-to-end
// benchmark's traced pass uses it to measure cold plan-and-execute
// against cached execution; tests use it for isolation, and EXPLAIN's
// plan-cache line depends on the zeroing for golden-file determinism.
func ResetPlanCache() {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	planCache.entries = make(map[string]*cacheEntry)
	planCache.lru = list.New()
	mPlanHits.Reset()
	mPlanMisses.Reset()
}
