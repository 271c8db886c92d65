package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestDurableMixedIndexWork runs the served durable_mixed shape in
// process and counts the index work it causes. A and B are preloaded,
// key-probed and take write groups; EMP is only time-sliced. A store
// reopened from its checkpoint builds no index until a query probes
// one, and a key probe reads the relation's key map: the whole run
// builds one interval index — EMP's, at its first slice, reused by
// every later slice of its one version. No commit costs a key-order
// (rank) build or a value-range build: EMP, never written, orders its
// slice candidates by the one key order its first slice builds, and a
// key probe's one tuple needs none.
func TestDurableMixedIndexWork(t *testing.T) {
	dir := t.TempDir()
	st, _, err := storage.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := lifespan.Interval(0, 999)
	for _, name := range []string{"A", "B"} {
		s := schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
		r := core.NewRelation(s)
		for i := 0; i < 200; i++ {
			r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
				Key("K", value.String_(fmt.Sprintf("p%06d", i))).
				Set("V", 0, 9, value.Int(int64(i%10))).
				MustBuild())
		}
		st.Put(r)
	}
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 500, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 1,
	}))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	builds0 := idxMetrics.intervalBuilds.Load()
	keyOrders := obs.Default.Counter("core.keyorder.builds")
	orders0, ranges0 := keyOrders.Load(), idxMetrics.rangeBuilds.Load()
	st, _, err = storage.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := idxMetrics.intervalBuilds.Load() - builds0; got != 0 {
		t.Fatalf("opening the store built %d interval indexes, want 0", got)
	}
	ctx := context.Background()
	s := OpenDB(st).NewSession()
	query := func(q string) {
		t.Helper()
		if _, err := s.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for g := 0; g < 20; g++ {
		if err := s.BeginGroup(); err != nil {
			t.Fatal(err)
		}
		lo := 10 * (g % 99)
		for _, rel := range []string{"A", "B"} {
			for j := 0; j < 8; j++ {
				spec := fmt.Sprintf(`tuple {[%d,%d]}; K = "g%06d.%d" @ {[%d,%d]}; V = %d @ {[%d,%d]}`,
					lo, lo+9, g, j, lo, lo+9, j, lo, lo+9)
				if _, err := s.Stage(rel, spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("g%06d.%d", g, g%8)
		query(fmt.Sprintf(`(SELECT WHEN K = '%s' FROM A) MINUS (SELECT WHEN K = '%s' FROM B)`, k, k))
		query(fmt.Sprintf(`SELECT WHEN K = 'p%06d' FROM A`, g))
		query(fmt.Sprintf(`SELECT WHEN K = 'p%06d' FROM B`, g))
		query(fmt.Sprintf(`TIMESLICE EMP AT {[%d,%d]}`, 1000*g, 1000*g+49))
	}
	if got := idxMetrics.intervalBuilds.Load() - builds0; got != 1 {
		t.Errorf("engine.index.interval_builds rose by %d, want 1 (EMP's)", got)
	}
	if got := keyOrders.Load() - orders0; got != 1 {
		t.Errorf("core.keyorder.builds rose by %d over 20 commits, want 1 (EMP's)", got)
	}
	if got := idxMetrics.rangeBuilds.Load() - ranges0; got != 0 {
		t.Errorf("engine.index.range_builds rose by %d, want 0", got)
	}
}
