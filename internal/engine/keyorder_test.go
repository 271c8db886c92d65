package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// ordScheme is the ORD relation of the key-order tests: a string key,
// a step-valued integer and a constant string.
func ordScheme() *schema.Scheme {
	full := lifespan.Interval(0, 199)
	return schema.MustNew("ORD", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "D", Domain: value.Strings, Lifespan: full},
	)
}

var ordDepts = []string{"Toys", "Shoes", "Books", "Tools", "Music"}

// ordTuple is key k alive on [lo,lo+4] with V = v+t at each time t,
// so any two tuples of one key and one v merge without contradiction.
func ordTuple(s *schema.Scheme, k int, lo chronon.Time, v int64) *core.Tuple {
	b := core.NewTupleBuilder(s, lifespan.Interval(lo, lo+4)).
		Key("K", value.String_(fmt.Sprintf("k%04d", k))).
		Set("D", lo, lo+4, value.String_(ordDepts[(k%5+5)%5]))
	for t := lo; t <= lo+4; t++ {
		b.SetAt("V", t, value.Int(v+int64(t)))
	}
	return b.MustBuild()
}

// ordStore builds a store whose ORD holds n keys inserted in a seeded
// random order, so its insertion order is far from its key order.
func ordStore(t testing.TB, n int) (*storage.Store, *core.Relation) {
	t.Helper()
	s := ordScheme()
	r := core.NewRelation(s)
	for _, k := range rand.New(rand.NewSource(int64(n))).Perm(n) {
		r.MustInsert(ordTuple(s, k, chronon.Time(k%90), int64(k%50)))
	}
	st := storage.NewStore()
	st.Put(r)
	return st, r
}

// orderedBattery is one query per order-keeping kernel over a base
// scan — a bare scan, SELECT WHEN, SELECT IF (∃ and ∀), time-slice,
// key-keeping PROJECT and RENAME — with the plan each must take, so a
// planner change cannot quietly move a case onto an index path.
var orderedBattery = []struct{ q, plan string }{
	{`ORD`, "scan ORD"},
	{`SELECT WHEN V > 60 FROM ORD`, "filter when"},
	{`SELECT IF V > 100 OR D = 'Books' FROM ORD`, "filter if-exists"},
	{`SELECT IF V < 90 FORALL FROM ORD`, "filter if-forall"},
	{`TIMESLICE (RENAME ORD AS X) AT {[10,40],[60,70]}`, "time-slice at"},
	{`PROJECT K, V FROM ORD`, "project K, V (key kept)"},
	{`PROJECT K, D FROM (SELECT WHEN V > 30 FROM ORD)`, "project K, D (key kept)"},
	{`RENAME (SELECT WHEN V < 80 FROM ORD) AS Y`, "rename as Y"},
}

// probeBattery is one query per index probe over ORD — the key
// lookup, the hash index, the lifespan index under TIME-SLICE and under
// SELECT … DURING, and the value-range index for each side of a range —
// with the probe each must take. Every probe answers in key order.
var probeBattery = []struct{ q, plan string }{
	{`SELECT WHEN K = 'k0042' FROM ORD`, "via key-index ORD.K"},
	{`SELECT WHEN D = 'Toys' FROM ORD`, "via attr-index(D"},
	{`TIMESLICE ORD AT {[10,30]}`, "index-time-slice ORD at {[10,30]} (interval index: "},
	{`SELECT WHEN K != 'k0001' DURING {[10,30]} FROM ORD`, "via interval-index during"},
	{`SELECT WHEN V > 120 FROM ORD`, "via range-index ORD.V"},
	{`SELECT IF V <= 20 FROM ORD`, "via range-index ORD.V"},
}

// checkKeyOrdered fails t unless res renders, and is Equal to, what
// the sort path (core.NewRelationFromTuples) makes of the same tuples.
func checkKeyOrdered(t *testing.T, q string, res hql.Result) {
	t.Helper()
	got := res.Relation
	want, err := core.NewRelationFromTuples(got.Scheme(), got.Tuples())
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: rendering differs from the sort path:\n%.400s\nwant\n%.400s", q, g, w)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: result not Equal to the sort path", q)
	}
}

// TestKeyOrderedResultsMatchSortPath: over a relation whose keys were
// inserted out of order, and that merges extend between queries, every
// order-keeping kernel over its scan, and every index probe —
// sequential, and partitioned at degrees 1, 2, 4 and 8 — gives a
// result that renders and compares exactly as the sorted construction
// of the same tuples, and as the naive evaluator's result.
func TestKeyOrderedResultsMatchSortPath(t *testing.T) {
	st, r := ordStore(t, 300)
	s := r.Scheme()
	battery := append(slices.Clone(orderedBattery), probeBattery...)
	for _, c := range battery {
		plan, err := OpenDB(st).NewSession().Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.plan) {
			t.Fatalf("%s: plan lacks %q:\n%s", c.q, c.plan, plan)
		}
	}
	for round := range 3 {
		for _, par := range []struct {
			name    string
			th, deg int
		}{{"sequential", defaultParallelThreshold, 1}, {"partitioned-1", 8, 1}, {"partitioned-2", 8, 2},
			{"partitioned-4", 8, 4}, {"partitioned-8", 8, 8}} {
			t.Run(fmt.Sprintf("round%d/%s", round, par.name), func(t *testing.T) {
				lowerParallelThreshold(t, par.th)
				sess := sessAt(st, par.deg)
				for _, c := range battery {
					res, err := sess.Query(bg, c.q)
					if err != nil {
						t.Fatalf("%s: %v", c.q, err)
					}
					checkKeyOrdered(t, c.q, res)
					e, err := hql.Parse(c.q)
					if err != nil {
						t.Fatal(err)
					}
					naive, err := hql.EvalNaive(e, st)
					if err != nil {
						t.Fatal(err)
					}
					if res.String() != naive.String() {
						t.Fatalf("%s: differs from the naive evaluator", c.q)
					}
				}
			})
		}
		// Merges between rounds: extend every seventh key's history, and
		// add a key above and one below every other.
		for k := round; k < 300; k += 7 {
			if err := r.InsertMerging(ordTuple(s, k, chronon.Time(100+k%90), int64(k%50))); err != nil {
				t.Fatal(err)
			}
		}
		r.MustInsert(ordTuple(s, 9000+round, 3, 1))
		r.MustInsert(ordTuple(s, -1-round, 50, 2)) // "k-001" sorts before every other key
	}
}

// TestKeyOrderBuiltOncePerVersion: a hundred scans and filters of an
// unchanged relation build its key order once; one committed write
// group makes a new version, whose first scan builds it again.
func TestKeyOrderBuiltOncePerVersion(t *testing.T) {
	st, r := ordStore(t, 200)
	sess := OpenDB(st).NewSession()
	builds := obs.Default.Counter("core.keyorder.builds")
	before := builds.Load()
	for i := range 100 {
		q := `ORD`
		if i%2 == 1 {
			q = fmt.Sprintf(`SELECT WHEN V > %d FROM ORD`, 20+i%60)
		}
		if _, err := sess.Query(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load() - before; got != 1 {
		t.Fatalf("100 scans of an unchanged relation built %d key orders, want 1", got)
	}
	g := core.NewWriteGroup()
	g.InsertMerging(r, ordTuple(r.Scheme(), 5, 150, 7))
	g.Insert(r, ordTuple(r.Scheme(), 7777, 20, 1))
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(bg, `ORD`)
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - before; got != 2 {
		t.Fatalf("after one write group: %d key orders built, want 2", got)
	}
	checkKeyOrdered(t, `ORD`, res)
}

// TestKeyOrderedScansRaceWriteGroups runs scans, filters and
// time-slices of one relation while write groups merge into it and
// add keys out of order. Every result must render exactly as the
// sorted construction of what the naive evaluator computes over the
// same pinned version (the snapshot the query ran on).
func TestKeyOrderedScansRaceWriteGroups(t *testing.T) {
	lowerParallelThreshold(t, 64)
	st, r := ordStore(t, 400)
	s := r.Scheme()
	db := OpenDBOptions(st, DBOptions{Workers: 4})
	queries := []string{
		`ORD`,
		`SELECT WHEN V > 60 FROM ORD`,
		`SELECT IF V > 100 FROM ORD`,
		`TIMESLICE (RENAME ORD AS X) AT {[20,60]}`,
		`PROJECT K, V FROM (SELECT WHEN V < 80 FROM ORD)`,
	}
	const readers, perReader, maxGroups = 3, 60, 400
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < maxGroups; i++ {
			select {
			case <-done:
				return
			default:
			}
			g := core.NewWriteGroup()
			for j := range 4 {
				k := rng.Intn(400)
				g.InsertMerging(r, ordTuple(s, k, chronon.Time(100+(i*4+j)%95), int64(k%50)))
			}
			g.Insert(r, ordTuple(s, 10000-i, chronon.Time(i%90), int64(i%50)))
			if err := g.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perReader {
				q := queries[(i+w)%len(queries)]
				var l lifted
				l.lift(q)
				var sp obs.Span
				res, _, snap, err := runQuery(bg, &l, db, &sp)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				want, err := pinnedNaive(q, snap)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if got := res.String(); got != want {
					t.Errorf("%s at %s: rendering differs from the sorted path of the pinned version:\n%.300s\nwant\n%.300s", q, snap, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	writer.Wait()
}

// pinnedNaive evaluates q with the naive evaluator over the versions
// snap pinned and renders the result through the sort path.
func pinnedNaive(q string, snap *Snapshot) (string, error) {
	e, err := hql.Parse(q)
	if err != nil {
		return "", err
	}
	env := pinnedVersions{}
	for i, d := range snap.deps {
		env[d.name] = snap.vers[i].View()
	}
	res, err := hql.EvalNaive(e, env)
	if err != nil {
		return "", err
	}
	sorted, err := core.NewRelationFromTuples(res.Relation.Scheme(), res.Relation.Tuples())
	if err != nil {
		return "", err
	}
	return sorted.String(), nil
}

// pinnedVersions is an hql.Env over frozen views.
type pinnedVersions map[string]*core.Relation

func (p pinnedVersions) Get(name string) (*core.Relation, bool) {
	r, ok := p[name]
	return r, ok
}
