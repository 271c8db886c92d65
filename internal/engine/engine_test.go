package engine

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestPlanShapes asserts the planner actually picks the indexed
// operators — equivalence alone would pass even if every query fell
// back to a scan.
func TestPlanShapes(t *testing.T) {
	st := testStore(t, 3)
	cases := []struct {
		query, want string
	}{
		{`TIMESLICE EMP AT {[0,9]}`, "index-time-slice EMP"},
		{`SELECT WHEN NAME = 'emp0001' FROM EMP`, "key-index EMP.NAME"},
		{`SELECT WHEN GRP = 'A' FROM REF`, "attr-index(GRP"},
		{`SELECT WHEN SAL > 30000 DURING {[5,15]} FROM EMP`, "interval-index during"},
		{`EMP JOIN REF ON NAME = RNAME`, "index-lookup-join"},
		{`EMP JOIN REF ON NAME = RNAME`, "key-index"},
		{`SELECT IF SAL > 1 FORALL FROM EMP`, "filter if-forall"},
		{`PROJECT NAME, SAL FROM EMP`, "project NAME, SAL (key kept)"},
		{`PROJECT DEPT FROM EMP`, "project DEPT (naive)"},
		{`EMP NATJOIN EMP`, "natural-join (naive)"},
		{`TIMESLICE EMP AT {[-inf,+inf]}`, "interval index over budget"},
	}
	for _, c := range cases {
		out, err := sess(st).Explain(c.query)
		if err != nil {
			t.Fatalf("explain %q: %v", c.query, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("explain %q:\n%s\nwant substring %q", c.query, out, c.want)
		}
	}
}

// TestLoadBuildsNoKeyIndex loads a store holding an EMP keyed by the
// single attribute NAME and an ENROLL keyed by (SNAME, CNAME). The load
// builds no attribute hash index: a point lookup on NAME probes the
// relation's key map, and ENROLL's SNAME index is built by the first
// query that probes it.
func TestLoadBuildsNoKeyIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.hrdm")
	src := storage.NewStore()
	src.Put(workload.Personnel(workload.DefaultPersonnel()))
	_, _, enroll := workload.Enrollment(workload.DefaultEnrollment())
	src.Put(enroll)
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	ab0 := idxMetrics.attrBuilds.Load()
	st, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ab := idxMetrics.attrBuilds.Load(); ab != ab0 {
		t.Fatalf("load built %d attribute indexes, want 0", ab-ab0)
	}
	out, err := sess(st).Explain(`SELECT WHEN NAME = 'emp0001' FROM EMP`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "key-index EMP.NAME") {
		t.Fatalf("point lookup does not probe the key map:\n%s", out)
	}
	if ab := idxMetrics.attrBuilds.Load(); ab != ab0 {
		t.Fatalf("a key probe built %d attribute indexes, want 0", ab-ab0)
	}
	er, _ := st.Get("ENROLL")
	if _, built := Indexes(er).AttrStatsIfBuilt("SNAME"); built {
		t.Fatal("ENROLL.SNAME index exists before any probe")
	}
	compareQuery(t, st, `SELECT WHEN SNAME = 'stu001' FROM ENROLL`)
	if _, built := Indexes(er).AttrStatsIfBuilt("SNAME"); !built {
		t.Fatal("the first probe of ENROLL.SNAME built no index")
	}
	if ab := idxMetrics.attrBuilds.Load(); ab != ab0+1 {
		t.Fatalf("first composite-key probe built %d attribute indexes, want 1", ab-ab0)
	}
}

// TestPlanLawShapes asserts where the planner applies Section 5's laws,
// on an EMP large enough for the cost estimates of the two sides of
// T_L(σ-WHEN_p(r)) = σ-WHEN_p(T_L(r)) to separate. want lists the plan
// lines, outermost first, each line's operator a prefix: the key
// equality keeps its index probe under the slice, attribute and range
// conditions filter what the interval index sliced, nested literal
// slices compose into one probe, and the rewrites that are not laws of
// the engine — σ pushed below ∪o, π pushed below T_L — are not made.
func TestPlanLawShapes(t *testing.T) {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 2000, HistoryLen: 200, ChangeEvery: 20, ReincarnationProb: 0.3, Seed: 1,
	}))
	cases := []struct {
		query string
		want  []string
	}{
		{`TIMESLICE (SELECT WHEN NAME = 'emp0007' FROM EMP) AT {[10,14]}`,
			[]string{"time-slice at {[10,14]}", "  index-select when EMP NAME=\"emp0007\" via key-index"}},
		{`TIMESLICE (SELECT WHEN DEPT = 'Toys' FROM EMP) AT {[10,14]}`,
			[]string{"filter when DEPT=\"Toys\"", "  index-time-slice EMP at {[10,14]}"}},
		{`TIMESLICE (SELECT WHEN SAL > 30000 FROM EMP) AT {[10,14]}`,
			[]string{"filter when SAL>30000", "  index-time-slice EMP at {[10,14]}"}},
		{`TIMESLICE (SELECT WHEN SAL > 30000 FROM (TIMESLICE EMP AT {[0,12]})) AT {[10,14]}`,
			[]string{"filter when SAL>30000", "  index-time-slice EMP at {[10,12]}"}},
		{`TIMESLICE (TIMESLICE EMP AT {[0,49]}) AT {[10,14],[60,70]}`,
			[]string{"index-time-slice EMP at {[10,14]}"}},
		{`TIMESLICE (TIMESLICE (TIMESLICE EMP AT {[0,49]}) AT {[5,99]}) AT {[10,14]}`,
			[]string{"index-time-slice EMP at {[10,14]}"}},
		{`TIMESLICE (SELECT IF SAL > 30000 EXISTS FROM EMP) AT {[10,14]}`,
			[]string{"time-slice at {[10,14]}", "  filter if-exists SAL>30000"}},
		{`PROJECT NAME, SAL FROM (TIMESLICE EMP AT {[10,14]})`,
			[]string{"project NAME, SAL (key kept)", "  index-time-slice EMP at {[10,14]}"}},
		{`SELECT WHEN SAL = 30000 FROM ((TIMESLICE EMP AT {[0,4]}) UNIONMERGE (TIMESLICE EMP AT {[5,199]}))`,
			[]string{"filter when SAL=30000", "  unionmerge (naive)"}},
	}
	for _, c := range cases {
		out, err := sess(st).Explain(c.query)
		if err != nil {
			t.Fatalf("explain %q: %v", c.query, err)
		}
		lines := strings.Split(out, "\n")[1:] // past the query line
		for i, want := range c.want {
			if i >= len(lines) || !strings.HasPrefix(lines[i], want) {
				t.Errorf("explain %q:\n%s\nwant plan line %d to start %q", c.query, out, i+1, want)
				break
			}
		}
	}
}

// TestCatalogInvalidation checks that indexes rebuild when a relation
// grows — stale candidate sets would silently drop new tuples.
func TestCatalogInvalidation(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 10, HistoryLen: 100, ChangeEvery: 10, ReincarnationProb: 0, Seed: 21,
	})
	before := Indexes(r).Interval().Tuples()
	if before != 10 {
		t.Fatalf("indexed %d tuples, want 10", before)
	}
	more := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 11, HistoryLen: 100, ChangeEvery: 10, ReincarnationProb: 0, Seed: 22,
	})
	extra := more.Tuples()[10]
	// Re-key the extra tuple via a fresh builder path: just insert it
	// under its own (distinct) name.
	if err := r.Insert(extra); err != nil {
		t.Fatalf("insert: %v", err)
	}
	after := Indexes(r).Interval().Tuples()
	if after != 11 {
		t.Fatalf("after insert indexed %d tuples, want 11 (stale index served)", after)
	}
}

// TestAttrIndexBuckets sanity-checks the constant/varying split on a
// relation where both occur.
func TestAttrIndexBuckets(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 30, HistoryLen: 150, ChangeEvery: 10, ReincarnationProb: 0.3, Seed: 13,
	})
	_, vers := core.Pin(r)
	ts := vers[0].Tuples()
	ix := newAttrIndexFrom(r.Scheme(), ts, "NAME") // key: every tuple constant
	if len(ix.Varying()) != 0 {
		t.Fatalf("NAME index has %d varying tuples, want 0", len(ix.Varying()))
	}
	if d := ix.Stats().Distinct; d != r.Cardinality() {
		t.Fatalf("NAME index has %d values, want %d", d, r.Cardinality())
	}
	got := ix.Probe(value.String_("emp0004"))
	if len(got) != 1 {
		t.Fatalf("probe emp0004 returned %d tuples, want 1", len(got))
	}
	dix := newAttrIndexFrom(r.Scheme(), ts, "DEPT") // mostly varying
	if len(dix.Varying())+dix.Stats().Distinct == 0 {
		t.Fatalf("DEPT index indexed nothing")
	}
}

// TestEqProbeAnswersAtThePin drives the equality probe's slow path —
// the live hash index has moved past the pin — deterministically: after
// a merge turns a pinned-constant GRP varying (out of its bucket, into
// the overflow) and a fresh GRP = 'A' tuple arrives, a probe through
// the old pin must still return exactly the tuples that held 'A' at the
// pin, in their pinned forms, each once, in key order.
func TestEqProbeAnswersAtThePin(t *testing.T) {
	st := testStore(t, 17)
	ref, _ := st.Get("REF")
	rs := ref.Scheme()
	_, vers := core.Pin(ref)
	v := vers[0]
	byKey, err := v.KeyOrdered()
	if err != nil {
		t.Fatal(err)
	}
	var want []*core.Tuple
	var victim *core.Tuple
	for _, o := range byKey {
		if c, _ := o.Value("GRP").ConstantValue(); c.Equal(value.String_("A")) {
			want = append(want, o)
			victim = o
		}
	}
	if victim == nil {
		t.Fatal("fixture has no GRP = 'A' tuple")
	}
	check := func(when string) {
		t.Helper()
		got, err := newEqProbe(v, "GRP").candidates(value.String_("A"))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: probe found %d candidates, want the %d pinned 'A' tuples once each in key order", when, len(got), len(want))
		}
	}
	check("index at the pin")

	free := lifespan.Interval(0, 199).Minus(victim.Lifespan()).Intervals()[0]
	if err := ref.InsertMerging(core.NewTupleBuilder(rs, lifespan.Interval(free.Lo, free.Hi)).
		Key("RNAME", victim.KeyValue("RNAME")).
		Set("BONUS", free.Lo, free.Hi, value.Int(1)).
		Set("GRP", free.Lo, free.Hi, value.String_("Z")).
		MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := ref.Insert(core.NewTupleBuilder(rs, lifespan.Interval(0, 9)).
		Key("RNAME", value.String_("newcomer")).
		Set("BONUS", 0, 9, value.Int(1)).
		Set("GRP", 0, 9, value.String_("A")).
		MustBuild()); err != nil {
		t.Fatal(err)
	}
	if got := len(Indexes(ref).Attr("GRP").Varying()); got != 1 {
		t.Fatalf("merge left %d tuples in the varying overflow, want 1", got)
	}
	check("index past the pin")
}
