package engine

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// durRe masks wall-clock durations in EXPLAIN ANALYZE output: every
// decimal number immediately suffixed by a Go duration unit becomes
// <T>, so the golden files lock rows, lookups, tree shape and line
// format while letting timings vary run to run. Plain counts (rows=1,
// 40 tuples, {[100,139]}) carry no unit suffix and survive untouched.
var durRe = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)`)

// analyzeGolden lists the EXPLAIN ANALYZE golden cases.
var analyzeGolden = []struct{ name, query string }{
	{"analyze_key_eq", `SELECT WHEN NAME = 'aaemp' FROM EMP`},
	{"analyze_attr_index_select", `SELECT WHEN DEPT = 'Toys' FROM EMP`},
	{"analyze_index_time_slice", `TIMESLICE EMP AT {[100,139]}`},
	{"analyze_equijoin_key_probe", `REF JOIN EMP ON RNAME = NAME`},
	{"analyze_when_materialize", `WHEN (SELECT WHEN SAL = 30000 FROM EMP)`},
	{"analyze_during_when_subplan", `SELECT WHEN SAL > 30000 DURING WHEN (SELECT WHEN DEPT = 'Toys' FROM EMP) INTERSECT {[0,399]} FROM EMP`},
}

// TestExplainAnalyzeGolden locks the annotated-tree rendering — per
// operator (actual: rows/time/self[/lookups]) trailers, the stage
// line, result summary and pinned snapshot — for representative plans,
// with volatile timings and the epoch masked. The line-by-line format
// is documented in docs/EXPLAIN.md; update it with any intentional
// change here. Regenerate with:
//
//	go test ./internal/engine -run TestExplainAnalyzeGolden -update
func TestExplainAnalyzeGolden(t *testing.T) {
	st := goldenStore(t)
	for _, c := range analyzeGolden {
		t.Run(c.name, func(t *testing.T) {
			out, err := sess(st).ExplainAnalyze(bg, c.query)
			if err != nil {
				t.Fatal(err)
			}
			got := epochRe.ReplaceAllString(out, "epoch <E>")
			got = durRe.ReplaceAllString(got, "<T>") + "\n"
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
				t.Fatalf("%v (run `go test ./internal/engine -run TestExplainAnalyzeGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestAnalyzeMatchesQuery: profiled and unprofiled executions are the
// same code, so for every golden query EXPLAIN ANALYZE's result renders
// byte-identically to Session.Query's, and the root operator's actual
// rows= is the cardinality Query returns.
func TestAnalyzeMatchesQuery(t *testing.T) {
	st := goldenStore(t)
	var queries []string
	for _, c := range explainGolden {
		queries = append(queries, c.query)
	}
	for _, c := range analyzeGolden {
		queries = append(queries, c.query)
	}
	for _, q := range queries {
		res, err := sess(st).Query(bg, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		a, err := analyzeQuery(bg, q, OpenDB(st))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got, want := a.res.String(), res.String(); got != want {
			t.Errorf("%s: profiled result differs from Query's\n--- analyze ---\n%s\n--- query ---\n%s", q, got, want)
		}
		if res.Relation != nil && a.rootStats().rows != int64(res.Relation.Cardinality()) {
			t.Errorf("%s: root rows=%d, Query returned %d tuples", q, a.rootStats().rows, res.Relation.Cardinality())
		}
	}
}

// TestAnalyzeAccounting asserts the numbers behind the rendering on an
// indexed equality select and an index join: per-operator self times
// sum to the root's wall time, the root's wall time accounts for the
// execute stage within tolerance, the stages partition the span's
// total with the sink's work landing in materialize (not execute), and
// actual row counts equal the result's cardinality.
func TestAnalyzeAccounting(t *testing.T) {
	st := goldenStore(t)
	for _, q := range []string{
		`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		`REF JOIN EMP ON RNAME = NAME`,
	} {
		a, err := analyzeQuery(bg, q, OpenDB(st))
		if err != nil {
			t.Fatal(err)
		}
		root := a.rootStats()
		if root == nil {
			t.Fatalf("%s: root operator has no stats", q)
		}
		if a.res.Relation == nil || int64(a.res.Relation.Cardinality()) != root.rows {
			t.Fatalf("%s: root rows=%d, result cardinality=%v", q, root.rows, a.res.Relation)
		}
		var selfSum time.Duration
		var walk func(n node)
		var walked []node
		walk = func(n node) {
			selfSum += a.selfTime(n)
			walked = append(walked, n)
			for _, k := range n.children() {
				walk(k)
			}
		}
		walk(a.plan.root)
		// Self times partition the root's wall exactly (modulo the
		// clamp at zero, which only rounds up).
		if selfSum < root.wall || selfSum > root.wall+root.wall/10+time.Millisecond {
			t.Fatalf("%s: Σ self=%v vs root wall=%v", q, selfSum, root.wall)
		}
		// The root's wall accounts for the execute stage: the stage adds
		// only the profiler/span bookkeeping around the tree.
		exec := a.sp.StageDur(obs.StageExecute)
		if root.wall > exec {
			t.Fatalf("%s: root wall %v exceeds execute stage %v", q, root.wall, exec)
		}
		if slack := exec - root.wall; slack > exec/10+50*time.Microsecond {
			t.Fatalf("%s: execute stage %v vs root wall %v — unaccounted %v", q, exec, root.wall, slack)
		}
		// Stages partition the span: every nanosecond between Begin and
		// the last mark belongs to exactly one stage, and building the
		// result relation — a plain relation query's whole materialize
		// stage — is measured, not billed to execute.
		var stageSum time.Duration
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			stageSum += a.sp.StageDur(st)
		}
		if stageSum != a.sp.Total() {
			t.Fatalf("%s: Σ stages=%v vs span total=%v", q, stageSum, a.sp.Total())
		}
		if a.sp.StageDur(obs.StageMaterialize) <= 0 {
			t.Fatalf("%s: materialize stage is empty — the sink ran unmeasured", q)
		}
		// Every operator in the tree must have been measured.
		for _, n := range walked {
			if a.prof.ops[n] == nil {
				t.Fatalf("%s: operator %s not profiled", q, n.describe(a.snap))
			}
		}
	}
}

// TestAnalyzeJoinLookups pins the join probe accounting: streaming the
// two REF tuples against EMP's key map is exactly two lookups.
func TestAnalyzeJoinLookups(t *testing.T) {
	st := goldenStore(t)
	a, err := analyzeQuery(bg, `REF JOIN EMP ON RNAME = NAME`, OpenDB(st))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.rootStats().lookups.Load(); got != 2 {
		t.Fatalf("join lookups = %d, want 2", got)
	}
	if !strings.Contains(a.render(), "lookups=2") {
		t.Fatal("rendering does not surface the lookup count")
	}
}
