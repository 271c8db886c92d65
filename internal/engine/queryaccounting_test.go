package engine

import (
	"context"
	"testing"

	"repro/internal/hrdmerr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestEveryQueryPathCountsOnce: whichever way a query leaves the engine
// — a plan-cache hit or miss, a parse error, a text that does not
// compile, an execution error, a cancellation mid-scan, or any exit of
// EXPLAIN ANALYZE — it closes its span exactly once, with the error
// class the case pins. It adds 1 to
// engine.queries and one engine.query_total_ns observation, with a
// total above zero that its stages add up to. The slow log, at a zero
// threshold, records that one span's total and stages. A context
// already done when the call begins adds nothing.
func TestEveryQueryPathCountsOnce(t *testing.T) {
	ResetPlanCache()
	t.Cleanup(ResetPlanCache)
	threshold := slowLog.Threshold()
	slowLog.SetThreshold(0)
	t.Cleanup(func() { slowLog.SetThreshold(threshold) })

	demo := storage.NewStore()
	if err := demo.MergeStore(workload.Demo()); err != nil {
		t.Fatal(err)
	}
	big := bigEMP()
	done, cancel := context.WithCancel(context.Background())
	cancel()

	query := func(st *storage.Store, ctx context.Context, src string) func() error {
		return func() error { _, err := sess(st).Query(ctx, src); return err }
	}
	analyze := func(st *storage.Store, ctx context.Context, src string) func() error {
		return func() error { _, err := sess(st).ExplainAnalyze(ctx, src); return err }
	}
	const key = `SELECT WHEN NAME = 'John' FROM EMP`
	if err := query(demo, bg, key)(); err != nil { // the hit case's plan
		t.Fatal(err)
	}
	const none, parse, semantic, canceled = 0, hrdmerr.CodeParse, hrdmerr.CodeSemantic, hrdmerr.CodeCanceled
	for _, c := range []struct {
		name    string
		run     func() error
		queries uint64       // engine.queries delta
		class   hrdmerr.Code // the error's class; none for success
		hits    uint64       // engine.plancache.hits delta
	}{
		{"query/hit", query(demo, bg, key), 1, none, 1},
		{"query/miss", query(demo, bg, `TIMESLICE EMP AT {[0,9]}`), 1, none, 0},
		{"query/parse-error", query(demo, bg, `THIS IS NOT HQL`), 1, parse, 0},
		{"query/lift-failure", query(demo, bg, `TIMESLICE EMP AT {[9,x]}`), 1, semantic, 0},
		{"query/unplannable", query(demo, bg, `NOSUCHREL`), 1, semantic, 0},
		{"query/execution-error", query(demo, bg, `EMP UNION (TIMESLICE EMP AT {[0,9]})`), 1, semantic, 0},
		{"query/canceled-mid-scan", query(big, newFlipCtx(2), `SELECT WHEN SAL > 0 FROM EMP`), 1, canceled, 0},
		{"query/already-canceled", query(demo, done, key), 0, canceled, 0},
		{"analyze/success", analyze(demo, bg, key), 1, none, 0},
		{"analyze/parse-error", analyze(demo, bg, `THIS IS NOT HQL`), 1, parse, 0},
		{"analyze/plan-error", analyze(demo, bg, `NOSUCHREL`), 1, semantic, 0},
		{"analyze/execution-error", analyze(demo, bg, `EMP UNION (TIMESLICE EMP AT {[0,9]})`), 1, semantic, 0},
		{"analyze/already-canceled", analyze(demo, done, key), 0, canceled, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			before, recorded := obs.Default.Snapshot(), slowLog.Recorded()
			err := c.run()
			after := obs.Default.Snapshot()
			if got := hrdmerr.CodeOf(err); got != c.class {
				t.Errorf("error %v of class %d, want class %d", err, got, c.class)
			}
			delta := after.CounterDelta(before)
			if got := delta["engine.plancache.hits"]; got != c.hits {
				t.Errorf("%d plan-cache hits, want %d — the case takes another path", got, c.hits)
			}
			hb, ha := before.Histograms["engine.query_total_ns"], after.Histograms["engine.query_total_ns"]
			if got := delta["engine.queries"]; got != c.queries {
				t.Errorf("engine.queries +%d, want +%d", got, c.queries)
			}
			if got := ha.Count - hb.Count; got != c.queries {
				t.Errorf("engine.query_total_ns +%d observations, want +%d", got, c.queries)
			}
			if got := slowLog.Recorded() - recorded; got != c.queries {
				t.Errorf("%d slow-log records, want %d", got, c.queries)
			}
			if c.queries == 0 || t.Failed() {
				return
			}
			rec := slowLog.Last(1)[0]
			var stages int64
			for _, st := range rec.Stages {
				stages += st.Ns
			}
			if rec.TotalNs <= 0 || stages != rec.TotalNs || ha.Sum-hb.Sum != rec.TotalNs {
				t.Errorf("total %d ns, stages sum to %d ns, histogram sum +%d ns; want one positive total all three agree on",
					rec.TotalNs, stages, ha.Sum-hb.Sum)
			}
		})
	}
}
