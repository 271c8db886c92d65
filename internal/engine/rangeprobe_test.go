package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// FuzzRangeProbe drives a relation with an Int attribute through random
// inserts and merges and takes pins between the steps. After every step
// one pinned version is probed with a random comparison, through the
// relation's cached range index when it was built at that pin or later
// and through one built from the pin otherwise: the candidates must be
// pinned tuples in strictly ascending key order and
// a superset of the tuples a naive scan finds holding a matching value
// — comparisons included where int64s round together as float64. At the
// end a served selection through the range probe must render as the
// naive evaluator's answer.
func FuzzRangeProbe(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), slices.Repeat([]byte{0, 1, 1, 2}, 30))
	f.Add(int64(3), slices.Repeat([]byte{1, 1, 2}, 50))
	full := lifespan.Interval(0, 9999)
	s := schema.MustNew("RP", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	edges := []int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, -(1 << 53)}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		ops = ops[:min(len(ops), 120)]
		rng := rand.New(rand.NewSource(seed))
		val := func() int64 {
			if rng.Intn(8) == 0 {
				return edges[rng.Intn(len(edges))] + int64(rng.Intn(3)-1)
			}
			return int64(rng.Intn(200))
		}
		next := map[string]chronon.Time{} // a key's first free chronon
		tuple := func(k string) *core.Tuple {
			lo := next[k] + chronon.Time(rng.Intn(3))
			next[k] = lo + 4
			b := core.NewTupleBuilder(s, lifespan.Interval(lo, lo+3)).Key("K", value.String_(k))
			for c := lo; c <= lo+3; c++ {
				if rng.Intn(4) > 0 {
					b.SetAt("V", c, value.Int(val()))
				}
			}
			return b.MustBuild()
		}
		r := core.NewRelation(s)
		var keys []string
		insert := func() {
			k := fmt.Sprintf("k%03d", rng.Intn(1000))
			if _, ok := next[k]; ok {
				return
			}
			next[k] = 0
			keys = append(keys, k)
			if err := r.Insert(tuple(k)); err != nil {
				t.Fatal(err)
			}
		}
		for range 10 {
			insert()
		}
		pins := []core.RelVersion{}
		for step, op := range ops {
			switch op % 3 {
			case 0:
				insert()
			case 1:
				if len(keys) > 0 {
					if err := r.InsertMerging(tuple(keys[rng.Intn(len(keys))])); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				_, vers := core.Pin(r)
				pins = append(pins, vers[0])
			}
			if len(pins) == 0 {
				continue
			}
			v := pins[rng.Intn(len(pins))]
			th := []value.Theta{value.LT, value.LE, value.GT, value.GE}[rng.Intn(4)]
			c := value.Int(val())
			got, ok := indexes(v).Range("V").probe(v, rangeQuery(th, c), math.MaxInt)
			if !ok {
				t.Fatalf("step %d: probe declined an unlimited budget", step)
			}
			byKey, err := v.KeyOrdered()
			if err != nil {
				t.Fatal(err)
			}
			rank := map[*core.Tuple]int{}
			for i, o := range byKey {
				rank[o] = i
			}
			last, cand := -1, map[*core.Tuple]bool{}
			for _, o := range got {
				i, pinned := rank[o]
				if !pinned || i <= last {
					t.Fatalf("step %d: V %s %s: candidate %s is not a pinned tuple in key order", step, th, c, o)
				}
				last, cand[o] = i, true
			}
			for _, o := range byKey {
				if holds(t, o, th, c) && !cand[o] {
					t.Fatalf("step %d: V %s %s: pinned %s holds a matching value but is no candidate", step, th, c, o)
				}
			}
		}
		st := storage.NewStore()
		st.Put(r)
		for _, q := range []string{`SELECT WHEN V > 150 FROM RP`, `SELECT IF V <= 20 FROM RP`, `SELECT WHEN V >= 9007199254740993 FROM RP`} {
			res, err := sess(st).Query(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			e, err := hql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := hql.EvalNaive(e, st)
			if err != nil {
				t.Fatal(err)
			}
			if res.String() != naive.String() {
				t.Fatalf("%s: differs from the naive evaluator:\n%s\nwant\n%s", q, res, naive)
			}
		}
	})
}

// holds reports whether some value of o's V stands in th to c.
func holds(t *testing.T, o *core.Tuple, th value.Theta, c value.Value) bool {
	f := o.Value("V")
	for i := range f.NumSteps() {
		_, x := f.StepAt(i)
		ok, err := th.Apply(x, c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRangeProbeOnScanJoinData plans scan_join's salary thresholds over
// its EMP (5 000 employees, seed 1987): a threshold above every salary
// probes the value-range index and finds nothing to filter, and one
// below every salary, whose probe would return everything, filters the
// whole relation in key order instead.
func TestRangeProbeOnScanJoinData(t *testing.T) {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 5000, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 1987,
	}))
	for q, want := range map[string]string{
		`SELECT WHEN SAL > 60000 FROM EMP`: "\nindex-select when EMP SAL>60000 via range-index EMP.SAL (0 of 5000 candidates)",
		`SELECT WHEN SAL > 21000 FROM EMP`: "\nfilter when SAL>21000, parallel (",
	} {
		out, err := sess(st).Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s:\n%s\nwant %q", q, out, want)
		}
	}
}

// TestRangeIndexOnlyWithoutEarlierProbe runs temporal_window's
// selections — SELECT WHEN SAL > c DURING a window of 5, 20 or 200
// chronons, bare and under WHEN — over its EMP shape: the lifespan probe
// bounds each to a few candidates, so no value-range index is built for
// them, while the same comparison without DURING still builds one.
func TestRangeIndexOnlyWithoutEarlierProbe(t *testing.T) {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 5000, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 1,
	}))
	rng := rand.New(rand.NewSource(1))
	builds := idxMetrics.rangeBuilds.Load()
	for i, w := range []int{5, 5, 20, 20, 200, 200} {
		lo := rng.Intn(100000 - w)
		q := fmt.Sprintf(`SELECT WHEN SAL > %d DURING {[%d,%d]} FROM EMP`, 26000+1000*rng.Intn(10), lo, lo+w-1)
		if i%2 == 1 {
			q = `WHEN (` + q + `)`
		}
		compareQuery(t, st, q)
	}
	if got := idxMetrics.rangeBuilds.Load() - builds; got != 0 {
		t.Fatalf("DURING selections built %d value-range indexes, want 0", got)
	}
	compareQuery(t, st, `SELECT WHEN SAL > 33000 FROM EMP`)
	if got := idxMetrics.rangeBuilds.Load() - builds; got != 1 {
		t.Fatalf("a selection without DURING built %d value-range indexes, want 1", got)
	}
}

// TestRangeQueryBounds: each comparison's value interval, empty rather
// than wrapped past the int64 extremes, widened where int64s round
// together as float64, and exact for Time values.
func TestRangeQueryBounds(t *testing.T) {
	const big = 1<<53 + 1
	for _, c := range []struct {
		th     value.Theta
		c      value.Value
		lo, hi int64
		empty  bool
	}{
		{th: value.GT, c: value.Int(5), lo: 6, hi: math.MaxInt64},
		{th: value.GE, c: value.Int(5), lo: 5, hi: math.MaxInt64},
		{th: value.LT, c: value.Int(5), lo: math.MinInt64, hi: 4},
		{th: value.LE, c: value.Int(5), lo: math.MinInt64, hi: 5},
		{th: value.GT, c: value.Int(math.MaxInt64), empty: true},
		{th: value.LT, c: value.Int(math.MinInt64), empty: true},
		{th: value.GE, c: value.Int(math.MinInt64), lo: math.MinInt64, hi: math.MaxInt64},
		{th: value.LE, c: value.Int(math.MaxInt64), lo: math.MinInt64, hi: math.MaxInt64},
		{th: value.GE, c: value.Int(big), lo: big - 2048, hi: math.MaxInt64},
		{th: value.LE, c: value.Int(-big), lo: math.MinInt64, hi: -big + 2048},
		{th: value.GE, c: value.TimeVal(big), lo: big, hi: math.MaxInt64},
	} {
		L := rangeQuery(c.th, c.c)
		if c.empty {
			if !L.IsEmpty() {
				t.Errorf("%s %s: %s, want empty", c.th, c.c, L)
			}
			continue
		}
		if want := lifespan.Interval(chronon.Time(c.lo), chronon.Time(c.hi)); !L.Equal(want) {
			t.Errorf("%s %s: %s, want %s", c.th, c.c, L, want)
		}
	}
}
