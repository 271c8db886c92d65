package engine

import (
	"container/list"
	"sync"

	"repro/internal/hql"
	"repro/internal/obs"
)

// Plan-cache metrics live in the process-wide registry so `\metrics`,
// JSON snapshots and the benchmark harness see them alongside every
// other engine counter; PlanCacheStats below stays as a thin typed
// view over the same numbers. Invalidations count fence failures
// (a dependency relation was swapped or outgrew its costing),
// evictions count LRU overflow — the distinction tells an operator
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

// The plan cache memoizes compiled physical plans so repeated queries
// skip parsing and planning. An entry is keyed by normalized query text
// (the raw source via hql.NormalizeQuery, and the parsed expression's
// canonical rendering, so textual and structural repeats both hit). A
// plan holds no data, so writes do not invalidate it; it is fenced by
// its dependencies' identity and size: each name must still resolve to
// the relation the plan was compiled over (a swapped environment, e.g.
// the CLI's \load, fails this and replans rather than serving results
// from the old store), grown to no more than staleGrowth times the
// cardinality it was costed at.

// cacheEntry is one cached plan with the keys it is registered under.
// elem is nil once the entry has left the cache.
type cacheEntry struct {
	plan *Plan
	keys []string
	elem *list.Element
}

type planCacheT struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of *cacheEntry; front = most recently used
}

// maxPlanCache bounds the cache: an LRU of compiled plans, whose
// footprint tracks the distinct-query working set, not the database.
const maxPlanCache = 256

var planCache = &planCacheT{entries: make(map[string]*cacheEntry), lru: list.New()}

// lookup returns the cached, still-valid entry under key (nil on a
// miss), dropping an entry whose dependency fence fails. count controls
// whether the hit/miss counters move — the raw-source alias lookup
// passes false so one query never counts twice.
func (pc *planCacheT) lookup(key string, env hql.Env, count bool) *cacheEntry {
	pc.mu.Lock()
	ent := pc.entries[key]
	if ent != nil {
		pc.lru.MoveToFront(ent.elem)
	}
	pc.mu.Unlock()
	if ent != nil && !ent.plan.valid(env) {
		pc.mu.Lock()
		pc.removeLocked(ent)
		pc.mu.Unlock()
		mPlanInvalidations.Inc()
		ent = nil
	}
	if count {
		if ent != nil {
			mPlanHits.Inc()
		} else {
			mPlanMisses.Inc()
		}
	}
	return ent
}

// peek reports whether a valid entry exists under key without touching
// LRU order or the hit/miss counters — EXPLAIN's read-only probe.
func (pc *planCacheT) peek(key string, env hql.Env) bool {
	pc.mu.Lock()
	ent, ok := pc.entries[key]
	pc.mu.Unlock()
	return ok && ent.plan.valid(env)
}

// store registers p under every non-empty key (replacing older entries
// those keys pointed at — two goroutines racing one miss leave the
// later plan) and evicts least-recently-used plans beyond the bound.
func (pc *planCacheT) store(keys []string, p *Plan) {
	ent := &cacheEntry{plan: p}
	for _, k := range keys {
		if k != "" {
			ent.keys = append(ent.keys, k)
		}
	}
	mPlanStores.Inc()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent.elem = pc.lru.PushFront(ent)
	for _, k := range ent.keys {
		if old, ok := pc.entries[k]; ok && old != ent {
			pc.removeLocked(old)
		}
		pc.entries[k] = ent
	}
	for pc.lru.Len() > maxPlanCache {
		pc.removeLocked(pc.lru.Back().Value.(*cacheEntry))
		mPlanEvictions.Inc()
	}
}

// maxAliasKeys bounds the spellings one entry may be registered under.
// Without it, a stream of whitespace-variant spellings of one query
// would grow the entries map without bound while the LRU stays at a
// compliant length; past the cap, variant spellings still hit through
// the canonical AST key after their parse.
const maxAliasKeys = 8

// addKey registers an additional alias key for a cached entry (e.g.
// the raw-source spelling of a query first seen pre-parsed).
func (pc *planCacheT) addKey(ent *cacheEntry, key string) {
	if key == "" {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if ent.elem == nil || len(ent.keys) >= maxAliasKeys || pc.entries[key] == ent {
		return
	}
	if old, ok := pc.entries[key]; ok {
		pc.removeLocked(old)
	}
	pc.entries[key] = ent
	ent.keys = append(ent.keys, key)
}

func (pc *planCacheT) removeLocked(ent *cacheEntry) {
	for _, k := range ent.keys {
		if pc.entries[k] == ent {
			delete(pc.entries, k)
		}
	}
	if ent.elem != nil {
		pc.lru.Remove(ent.elem)
		ent.elem = nil
	}
}

// PlanCacheStats reports the cache's cumulative hit and miss counts and
// its current size — a typed view over the registry counters
// engine.plancache.{hits,misses} plus the live entry count.
func PlanCacheStats() (hits, misses uint64, entries int) {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	return mPlanHits.Load(), mPlanMisses.Load(), planCache.lru.Len()
}

// InvalidateStalePlans drops every cached plan that no longer
// validates against env — one of its dependencies resolves to a
// different relation (a swapped store) or has outgrown its costing —
// and reports how many entries were dropped. Entries whose
// dependencies still resolve identically survive, so a store swap that
// shares relations with its predecessor (or a reload of unrelated
// relations) keeps the working set warm: the precise replacement for
// clearing the cache wholesale on swap.
func InvalidateStalePlans(env hql.Env) (dropped int) {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	var next *list.Element
	for e := planCache.lru.Front(); e != nil; e = next {
		next = e.Next()
		ent := e.Value.(*cacheEntry)
		if !ent.plan.valid(env) {
			planCache.removeLocked(ent)
			mPlanInvalidations.Inc()
			dropped++
		}
	}
	return dropped
}

// ResetPlanCache empties the plan cache and zeroes its hit/miss
// counters (in the registry — the handles stay valid). The benchmark
// harness uses it to measure cold plan-and-execute against cached
// execution; tests use it for isolation, and EXPLAIN's plan-cache line
// depends on the zeroing for golden-file determinism.
func ResetPlanCache() {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	planCache.entries = make(map[string]*cacheEntry)
	planCache.lru = list.New()
	mPlanHits.Reset()
	mPlanMisses.Reset()
}

// srcCacheKey / astCacheKey build the two key namespaces: normalized
// raw source and canonical AST rendering.
func srcCacheKey(src string) string { return "src:" + hql.NormalizeQuery(src) }
func astCacheKey(e hql.Expr) string { return "ast:" + e.String() }
