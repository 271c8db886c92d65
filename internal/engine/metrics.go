package engine

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Engine-side metric handles, resolved once against the process-wide
// registry. Everything the per-query hot path touches is an atomic
// counter or histogram; the budget is a handful of clock reads and
// atomic adds per query (see BenchmarkRunCachedKeyEq, which locks the
// cached-plan path the instrumentation must not tax).
var (
	mQueries      = obs.Default.Counter("engine.queries")
	mQueryErrors  = obs.Default.Counter("engine.query_errors")
	mSlowRecorded = obs.Default.Counter("engine.slowlog.recorded")
	mQueryTotal   = obs.Default.Histogram("engine.query_total_ns")
	mEpochAge     = obs.Default.Histogram("engine.snapshot.epoch_age")
	slowLog       = obs.Default.SlowLog()
)

// stageHist holds one histogram per lifecycle stage, indexed by the
// obs.Stage constants. The names are spelled out (rather than derived
// from obs.StageName at init) so the full metric catalog is greppable
// and auditable against docs/OBSERVABILITY.md, which the root
// TestMetricCatalogMatchesDocs checks name by name.
var stageHist = [obs.NumStages]*obs.Histogram{
	obs.StageParse:       obs.Default.Histogram("engine.stage.parse_ns"),
	obs.StagePlan:        obs.Default.Histogram("engine.stage.plan_ns"),
	obs.StagePin:         obs.Default.Histogram("engine.stage.pin_ns"),
	obs.StageExecute:     obs.Default.Histogram("engine.stage.execute_ns"),
	obs.StageMaterialize: obs.Default.Histogram("engine.stage.materialize_ns"),
}

// stageHistFloor gates per-stage histogram observation: queries
// cheaper than this contribute to engine.query_total_ns only. Below a
// few tens of microseconds the stage split is clock-read noise, and
// skipping the five observations keeps the cached-plan hot path inside
// its overhead budget; slow queries — the ones whose stage split
// matters — always record.
const stageHistFloor = 50 * time.Microsecond

// finishQuery closes a query's span into the registry: the total and
// (for non-trivial queries) per-stage histograms, the error and
// epoch-age accounting, and — past the slow-log threshold — a full
// slow-query record naming what ran against what: the query's shape
// rendered with this execution's literals (lifted.text), the pinned
// name@version list, snapshot epoch and stage breakdown. The text is
// rendered only for a query that qualifies, so the hot path pays
// nothing for it. Its two callers, evalQuery and analyzeQuery, call it
// once each, straight after the call that did the query's work.
func finishQuery(sp *obs.Span, q *lifted, p *Plan, snap *Snapshot, err error) {
	total := sp.Total()
	mQueries.Inc()
	if err != nil {
		mQueryErrors.Inc()
	}
	mQueryTotal.Observe(int64(total))
	if total >= stageHistFloor {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if d := sp.StageDur(st); d > 0 {
				stageHist[st].Observe(int64(d))
			}
		}
	}
	var epoch uint64
	if snap != nil {
		epoch = snap.Epoch
		if age := core.Epoch() - epoch; age > 0 {
			mEpochAge.Observe(int64(age))
		}
	}
	if slowLog.Qualifies(total) {
		text, fp := q.text(), ""
		if p != nil {
			fp = text + " @ " + snap.String()
		}
		slowLog.Record(obs.SlowQuery{
			Query: text, Fingerprint: fp, Epoch: epoch,
			TotalNs: int64(total), Stages: sp.Stages(),
		})
		mSlowRecorded.Inc()
	}
}
