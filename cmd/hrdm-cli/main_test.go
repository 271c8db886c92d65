package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/obs"
	"repro/internal/workload"
)

// demoSession builds the shell's default state: a session over the
// demo database.
func demoSession() *engine.Session {
	return engine.OpenDB(workload.Demo()).NewSession()
}

// TestRunQueryMatchesNaive: the shell answers a SELECT-IF over the
// object-based union of two complementary slices exactly as the
// reference evaluator does — whole histories of the objects that ever
// earned 30000 — rather than the per-operand halves a select pushed
// below ∪o would return.
func TestRunQueryMatchesNaive(t *testing.T) {
	const q = `SELECT IF SAL = 30000 EXISTS FROM ((TIMESLICE EMP AT {[0,4]}) UNIONMERGE (TIMESLICE EMP AT {[5,99]}))`
	var got strings.Builder
	if err := runQuery(&got, demoSession(), q); err != nil {
		t.Fatal(err)
	}
	e, err := hql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hql.EvalNaive(e, workload.Demo())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String()+"\n" {
		t.Fatalf("shell rendered\n%s\nreference evaluator\n%s", got.String(), want)
	}
}

func TestCutExplain(t *testing.T) {
	cases := []struct {
		in   string
		rest string
		ok   bool
	}{
		{"EXPLAIN SELECT WHEN SAL = 1 FROM EMP", "SELECT WHEN SAL = 1 FROM EMP", true},
		{"explain   TIMESLICE EMP AT {[0,9]}", "TIMESLICE EMP AT {[0,9]}", true},
		{"EXPLAIN", "", true}, // bare EXPLAIN gets a usage hint, not a parse error
		{"  explain  ", "", true},
		{"EXPLAINX EMP", "EXPLAINX EMP", false},
		{"SELECT WHEN SAL = 1 FROM EMP", "SELECT WHEN SAL = 1 FROM EMP", false},
		{"", "", false},
	}
	for _, c := range cases {
		rest, ok := cutExplain(c.in)
		if rest != c.rest || ok != c.ok {
			t.Errorf("cutExplain(%q) = (%q, %v), want (%q, %v)", c.in, rest, ok, c.rest, c.ok)
		}
	}
}

// TestRunQueryBareExplain drives the full runQuery path: a bare EXPLAIN
// must succeed (printing a hint) instead of surfacing an HQL parse error.
func TestRunQueryBareExplain(t *testing.T) {
	sess := demoSession()
	if err := runQuery(io.Discard, sess, "EXPLAIN"); err != nil {
		t.Fatalf("bare EXPLAIN should print a usage hint, got error: %v", err)
	}
	if err := runQuery(io.Discard, sess, "EXPLAIN TIMESLICE EMP AT {[0,5]}"); err != nil {
		t.Fatalf("EXPLAIN with query: %v", err)
	}
}

func TestCutAnalyze(t *testing.T) {
	cases := []struct {
		in   string
		rest string
		ok   bool
	}{
		{"ANALYZE SELECT WHEN SAL = 1 FROM EMP", "SELECT WHEN SAL = 1 FROM EMP", true},
		{"analyze TIMESLICE EMP AT {[0,9]}", "TIMESLICE EMP AT {[0,9]}", true},
		{"ANALYZE", "", true}, // EXPLAIN ANALYZE alone still gets the usage hint
		{"ANALYZER EMP", "ANALYZER EMP", false},
		{"SELECT WHEN SAL = 1 FROM EMP", "SELECT WHEN SAL = 1 FROM EMP", false},
		{"", "", false},
	}
	for _, c := range cases {
		rest, ok := cutAnalyze(c.in)
		if rest != c.rest || ok != c.ok {
			t.Errorf("cutAnalyze(%q) = (%q, %v), want (%q, %v)", c.in, rest, ok, c.rest, c.ok)
		}
	}
}

// TestRunQueryExplainAnalyze drives EXPLAIN ANALYZE end to end through
// runQuery, both bare and with a query.
func TestRunQueryExplainAnalyze(t *testing.T) {
	sess := demoSession()
	if err := runQuery(io.Discard, sess, "EXPLAIN ANALYZE"); err != nil {
		t.Fatalf("bare EXPLAIN ANALYZE should print a usage hint, got error: %v", err)
	}
	if err := runQuery(io.Discard, sess, "EXPLAIN ANALYZE SELECT WHEN SAL = 30000 FROM EMP"); err != nil {
		t.Fatalf("EXPLAIN ANALYZE with query: %v", err)
	}
}

// TestMetricsReport checks both renderings of \metrics: the text form
// carries the engine counters, the JSON form parses and exposes the
// same keys under the snapshot's sections.
func TestMetricsReport(t *testing.T) {
	sess := demoSession()
	if err := runQuery(io.Discard, sess, "SELECT WHEN SAL = 30000 FROM EMP"); err != nil {
		t.Fatal(err)
	}
	text := metricsReport(false)
	for _, want := range []string{"engine.queries", "engine.plancache.", "core.epoch"} {
		if !strings.Contains(text, want) {
			t.Errorf("\\metrics output lacks %q:\n%s", want, text)
		}
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(metricsReport(true)), &snap); err != nil {
		t.Fatalf("\\metrics json is not valid JSON: %v", err)
	}
	if snap.Counters["engine.queries"] == 0 {
		t.Error("engine.queries missing or zero in JSON snapshot")
	}
	if _, ok := snap.Gauges["core.epoch"]; !ok {
		t.Error("core.epoch gauge missing in JSON snapshot")
	}
}

// TestSlowlogAndSetOption lowers the threshold to zero so every query
// records, then checks \slowlog renders the entry and \set validates
// its input.
func TestSlowlogAndSetOption(t *testing.T) {
	prev := obs.Default.SlowLog().Threshold()
	defer obs.Default.SlowLog().SetThreshold(prev)

	if _, err := setOption("slowlog_ms", "0"); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.SlowLog().Threshold(); got != 0 {
		t.Fatalf("threshold = %v after \\set slowlog_ms 0", got)
	}
	sess := demoSession()
	if err := runQuery(io.Discard, sess, "TIMESLICE EMP AT {[0,5]}"); err != nil {
		t.Fatal(err)
	}
	out := slowlogReport(5)
	if !strings.Contains(out, "TIMESLICE EMP AT {[0,5]}") {
		t.Errorf("slow log does not show the recorded query:\n%s", out)
	}
	if !strings.Contains(out, "stages:") {
		t.Errorf("slow log entry lacks stage breakdown:\n%s", out)
	}

	if _, err := setOption("slowlog_ms", "250"); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.SlowLog().Threshold(); got != 250*time.Millisecond {
		t.Fatalf("threshold = %v, want 250ms", got)
	}
	if _, err := setOption("slowlog_ms", "-1"); err == nil {
		t.Error("negative slowlog_ms accepted")
	}
	if _, err := setOption("nope", "1"); err == nil {
		t.Error("unknown option accepted")
	}
}
