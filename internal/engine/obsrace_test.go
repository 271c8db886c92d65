package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestObsCountersUnderRace hammers the metrics layer from the paths
// that feed it concurrently — queries through Session.Query (cached and
// cold), writers publishing inserts, EXPLAIN ANALYZE runs — and then
// checks the registry's books balance: every query is counted exactly
// once in both engine.queries and the engine.query_total_ns histogram,
// and the plan cache's hits and misses sum to at most the counted
// lookups. Run under -race: the assertions catch lost updates, the
// race detector catches unsynchronized ones.
func TestObsCountersUnderRace(t *testing.T) {
	s := raceScheme("OBSREL")
	r := core.NewRelation(s)
	st := storage.NewStore()
	st.Put(r)
	for i := 0; i < 16; i++ {
		if err := r.Insert(raceTuple(s, fmt.Sprintf("seed%02d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sliceEach(t, st, "OBSREL")

	before := obs.Default.Snapshot()

	const workers, perWorker, analyzeEvery = 6, 150, 25
	var wg sync.WaitGroup
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			if err := r.Insert(raceTuple(s, fmt.Sprintf("w%05d", i), int64(i))); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	queries := []string{
		`SELECT WHEN K = 'seed03' FROM OBSREL`,
		`TIMESLICE OBSREL AT {[0,5]}`,
		`SELECT IF V > 4 FROM OBSREL`,
	}
	var analyzed int64
	var analyzedMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				if i%analyzeEvery == 0 {
					if _, err := sess(st).ExplainAnalyze(bg, q); err != nil {
						t.Errorf("analyze %s: %v", q, err)
						return
					}
					analyzedMu.Lock()
					analyzed++
					analyzedMu.Unlock()
					continue
				}
				if _, err := sess(st).Query(bg, q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	after := obs.Default.Snapshot()
	delta := after.CounterDelta(before)
	wantQueries := uint64(workers * perWorker) // Run and ExplainAnalyze both land in finishQuery
	if got := delta["engine.queries"]; got != wantQueries {
		t.Fatalf("engine.queries delta = %d, want %d", got, wantQueries)
	}
	histDelta := after.Histograms["engine.query_total_ns"].Count - before.Histograms["engine.query_total_ns"].Count
	if histDelta != wantQueries {
		t.Fatalf("query_total_ns observations = %d, want %d", histDelta, wantQueries)
	}
	if got := delta["engine.query_errors"]; got != 0 {
		t.Fatalf("unexpected query errors: %d", got)
	}
	// Every Query that parses counts exactly one plan-cache hit or miss,
	// and ANALYZE never touches the cache.
	runs := wantQueries - uint64(analyzed)
	hitsMisses := delta["engine.plancache.hits"] + delta["engine.plancache.misses"]
	if hitsMisses != runs {
		t.Fatalf("plan-cache hits+misses = %d, want %d", hitsMisses, runs)
	}
	// The writer published 300 inserts; the epoch gauge and write-group
	// counters live in the same registry and must be visible in the
	// snapshot (epoch is a gauge func, so it reflects the live value).
	if after.Gauges["core.epoch"] < before.Gauges["core.epoch"]+300 {
		t.Fatalf("core.epoch gauge did not advance: %d -> %d",
			before.Gauges["core.epoch"], after.Gauges["core.epoch"])
	}
}
