package engine

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// The EXPLAIN output these golden files lock — every line, from the
// plan tree through the snapshot and plan-cache reports — is
// documented in docs/EXPLAIN.md; update
// that document whenever an intentional format change updates the
// golden files here.
var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files under testdata/explain")

// epochRe masks the database epoch in EXPLAIN output: it is a
// process-global counter, so its absolute value depends on which tests
// ran first. Relation versions and everything else are deterministic
// for the freshly built store.
var epochRe = regexp.MustCompile(`epoch \d+`)

// goldenStore builds a small fully deterministic database: a
// 40-tuple EMP with staggered lifespans (large enough that index probes
// fit their budgets), a two-tuple REF for joins, and TINY, a relation
// small enough that a time-slice restricts it whole without probing
// the interval index.
func goldenStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	full := lifespan.Interval(0, 999)

	es := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full, Interp: "step"},
	)
	emp := core.NewRelation(es)
	depts := []string{"Toys", "Books", "Shoes", "Games"}
	for i := 0; i < 40; i++ {
		lo := chronon.Time(i * 20)
		hi := lo + 9
		name := string(rune('a'+i%26)) + string(rune('a'+i/26)) + "emp"
		emp.MustInsert(core.NewTupleBuilder(es, lifespan.Interval(lo, hi)).
			Key("NAME", value.String_(name)).
			Set("SAL", lo, hi, value.Int(int64(30000+100*i))).
			Set("DEPT", lo, hi, value.String_(depts[i%len(depts)])).
			MustBuild())
	}
	st.Put(emp)

	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	ref := core.NewRelation(rs)
	for i, name := range []string{"aaemp", "bbemp"} {
		lo := chronon.Time(i * 20)
		ref.MustInsert(core.NewTupleBuilder(rs, lifespan.Interval(lo, lo+9)).
			Key("RNAME", value.String_(name)).
			Set("BONUS", lo, lo+9, value.Int(int64(1000*(i+1)))).
			MustBuild())
	}
	st.Put(ref)

	ts := schema.MustNew("TINY", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
	)
	tiny := core.NewRelation(ts)
	tiny.MustInsert(core.NewTupleBuilder(ts, lifespan.Interval(0, 9)).
		Key("K", value.String_("only")).
		MustBuild())
	st.Put(tiny)

	sliceEach(t, st, st.Names()...)
	if _, err := sess(st).Query(bg, `SELECT WHEN DEPT = 'Toys' FROM EMP`); err != nil {
		t.Fatal(err)
	}
	return st
}

// explainGolden lists the EXPLAIN golden cases.
var explainGolden = []struct {
	name, query string
	prime       bool // run the query first, so EXPLAIN reports a cache hit
}{
	{"index_scan_key_eq", `SELECT WHEN NAME = 'aaemp' FROM EMP`, false},
	{"attr_index_select", `SELECT WHEN DEPT = 'Toys' FROM EMP`, false},
	{"index_time_slice", `TIMESLICE EMP AT {[100,139]}`, false},
	{"time_slice_short_circuit", `TIMESLICE TINY AT {[0,5]}`, false},
	{"equijoin_key_probe", `REF JOIN EMP ON RNAME = NAME`, false},
	{"during_interval_index", `SELECT WHEN SAL > 30000 DURING {[100,139]} FROM EMP`, false},
	{"cache_hit", `SELECT WHEN NAME = 'bbemp' FROM EMP`, true},
	{"time_slice_when_subplan", `TIMESLICE EMP AT WHEN (SELECT WHEN DEPT = 'Toys' FROM EMP)`, false},
	{"range_index_select", `SELECT WHEN SAL > 33500 FROM EMP`, false},
	{"range_over_budget", `SELECT IF SAL >= 30000 FROM EMP`, false},
}

// TestExplainGolden locks the full EXPLAIN rendering — plan shape,
// pinned snapshot, plan-cache status — for
// representative plans against golden files. Run with -update after an
// intentional planner or formatting change:
//
//	go test ./internal/engine -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	st := goldenStore(t)
	for _, c := range explainGolden {
		t.Run(c.name, func(t *testing.T) {
			// Counter determinism: every case starts from an empty cache;
			// the prime run then yields exactly one miss before the hit.
			ResetPlanCache()
			if c.prime {
				if _, err := sess(st).Query(bg, c.query); err != nil {
					t.Fatal(err)
				}
			}
			out, err := sess(st).Explain(c.query)
			if err != nil {
				t.Fatal(err)
			}
			got := epochRe.ReplaceAllString(out, "epoch <E>") + "\n"
			path := filepath.Join("testdata", "explain", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/engine -run TestExplainGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
	ResetPlanCache()
}
