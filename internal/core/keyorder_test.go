package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// empFixture builds n EMP tuples whose lifespans march forward in
// time: tuple i lives on [i mod 90, i mod 90 + 4].
func empFixture(t testing.TB, n int) []*Tuple {
	t.Helper()
	s := empScheme()
	ts := make([]*Tuple, n)
	for i := range ts {
		lo := chronon.Time(i % 90)
		hi := lo + 4
		ts[i] = NewTupleBuilder(s, lifespan.Interval(lo, hi)).
			Key("NAME", value.String_(fmt.Sprintf("emp%04d", i))).
			Set("SAL", lo, hi, value.Int(int64(1000*i))).
			Set("DEPT", lo, hi, value.String_("Toys")).
			MustBuild()
	}
	return ts
}

func TestNewRelationFromTuples(t *testing.T) {
	s := empScheme()
	ts := empFixture(t, 30)
	r, err := NewRelationFromTuples(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != len(ts) {
		t.Fatalf("cardinality %d, want %d", r.Cardinality(), len(ts))
	}
	// Equal to the incremental construction, key map included.
	inc := NewRelation(s)
	for _, tp := range ts {
		inc.MustInsert(tp)
	}
	if !r.Equal(inc) {
		t.Fatal("coalesced construction differs from incremental inserts")
	}
	if _, ok := r.lookupTuple(ts[17]); !ok {
		t.Fatal("key map misses a constructed tuple")
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatalf("coalesced relation violates invariants: %v", err)
	}

	// A duplicate key fails the whole construction.
	if _, err := NewRelationFromTuples(s, append(ts[:5:5], ts[4])); err == nil {
		t.Fatal("duplicate key must fail the coalesced construction")
	}
}

// shuffledFixture is empFixture in a seeded random order, so a
// key-ordered rendering has real sorting to do.
func shuffledFixture(t testing.TB, n int) []*Tuple {
	ts := empFixture(t, n)
	rand.New(rand.NewSource(int64(n))).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// empTuple builds one EMP tuple living on [lo,hi].
func empTuple(name string, lo, hi chronon.Time, sal int64) *Tuple {
	return NewTupleBuilder(empScheme(), lifespan.Interval(lo, hi)).
		Key("NAME", value.String_(name)).
		Set("SAL", lo, hi, value.Int(sal)).
		Set("DEPT", lo, hi, value.String_("Toys")).
		MustBuild()
}

// TestNewRelationFromTuplesAllocsConstant: building a relation from a
// result slice makes no allocation per tuple — the keys are encoded into
// a pooled buffer and only the sorted order is kept — so 100 and 10 000
// tuples cost the same number of allocations.
func TestNewRelationFromTuplesAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := empScheme()
	allocs := func(n int) float64 {
		ts := shuffledFixture(t, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := NewRelationFromTuples(s, ts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if small != large {
		t.Errorf("NewRelationFromTuples: %.0f allocations at n=100, %.0f at n=10 000; want the same", small, large)
	}
}

// TestKeyOrderedRelationMatchesInserted: a NewRelationFromTuples
// relation, whose key map is built only on first keyed use and whose
// stored order the first mutation drops, answers every keyed operation
// and renders exactly like a NewRelation+InsertBatch relation of the
// same tuples — each operation tried first on a fresh relation, so each
// is the one that builds the key map.
func TestKeyOrderedRelationMatchesInserted(t *testing.T) {
	s := empScheme()
	ts := shuffledFixture(t, 200)
	fresh := empTuple("emp9999", 0, 9, 1)
	dup := empTuple("emp0003", 50, 59, 1)        // emp0003's key, for the plain inserts to reject
	later := empTuple("emp0003", 95, 99, 3000)   // extends emp0003's history ([3,7]) without contradiction
	clash := empTuple("emp0003", 3, 7, 12345678) // contradicts emp0003's salary
	ops := []struct {
		name string
		op   func(r *Relation) error
	}{
		{"no mutation", func(*Relation) error { return nil }}, // Equal, then Lookup, build the key map
		{"Insert", func(r *Relation) error { return r.Insert(fresh) }},
		{"Insert duplicate", func(r *Relation) error { return r.Insert(dup) }},
		{"InsertMerging", func(r *Relation) error { return r.InsertMerging(later) }},
		{"InsertMerging contradiction", func(r *Relation) error { return r.InsertMerging(clash) }},
		{"InsertBatch", func(r *Relation) error { return r.InsertBatch([]*Tuple{fresh, empTuple("emp9998", 1, 2, 2)}) }},
		{"InsertBatch duplicate", func(r *Relation) error { return r.InsertBatch([]*Tuple{fresh, dup}) }},
		{"WriteGroup", func(r *Relation) error {
			g := NewWriteGroup()
			g.Insert(r, fresh)
			g.InsertMerging(r, later)
			return g.Commit()
		}},
		{"WriteGroup duplicate", func(r *Relation) error {
			g := NewWriteGroup()
			g.Insert(r, dup)
			return g.Commit()
		}},
	}
	for _, c := range ops {
		t.Run(c.name, func(t *testing.T) {
			got, err := NewRelationFromTuples(s, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := NewRelation(s)
			if err := want.InsertBatch(ts); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("stored-order rendering differs from the sort path:\n%s\nwant\n%s", got, want)
			}
			gotErr, wantErr := c.op(got), c.op(want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, want %v", gotErr, wantErr)
			}
			if got.String() != want.String() {
				t.Fatalf("rendering after %s differs:\n%s\nwant\n%s", c.name, got, want)
			}
			if !got.Equal(want) || !want.Equal(got) {
				t.Fatal("relations not Equal")
			}
			for _, tu := range append(want.Tuples(), fresh) {
				key := tu.KeyValue("NAME").String()
				g, gok := got.Lookup(key)
				w, wok := want.Lookup(key)
				if gok != wok || (gok && !g.Equal(w)) {
					t.Fatalf("Lookup(%s) = %v %v, want %v %v", key, g, gok, w, wok)
				}
			}
		})
	}
}

// TestDerivedKeyIndexConcurrentLookup: eight goroutines making the first
// Lookup on a NewRelationFromTuples relation at once all race to build
// its key map; under -race the build must be synchronized, and every
// caller must find its tuple.
func TestDerivedKeyIndexConcurrentLookup(t *testing.T) {
	ts := shuffledFixture(t, 500)
	r, err := NewRelationFromTuples(empScheme(), ts)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := g; i < len(ts); i += 8 {
				key := ts[i].KeyValue("NAME").String()
				if u, ok := r.Lookup(key); !ok || u != ts[i] {
					t.Errorf("goroutine %d: Lookup(%s) = %v, %v", g, key, u, ok)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestNewRelationFromTuplesOneRow: a result of zero or one tuple is
// built with no key encoded and no order slice — one allocation, the
// relation — and behaves as the sorted construction: it renders the
// same, finds its tuple, and takes inserts afterwards.
func TestNewRelationFromTuplesOneRow(t *testing.T) {
	s := empScheme()
	one := empFixture(t, 1)
	for _, ts := range [][]*Tuple{nil, one} {
		r, err := NewRelationFromTuples(s, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := NewRelation(s)
		if err := want.InsertBatch(ts); err != nil {
			t.Fatal(err)
		}
		if r.String() != want.String() || !r.Equal(want) {
			t.Fatalf("%d-row result:\n%s\nwant\n%s", len(ts), r, want)
		}
		fresh := empTuple("emp9999", 0, 9, 1)
		if err := r.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if err := want.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if r.String() != want.String() {
			t.Fatalf("after an insert:\n%s\nwant\n%s", r, want)
		}
		if !raceEnabled {
			if n := testing.AllocsPerRun(100, func() { _, _ = NewRelationFromTuples(s, ts) }); n != 1 {
				t.Errorf("%d-row NewRelationFromTuples: %.0f allocations, want 1 (the relation)", len(ts), n)
			}
		}
	}
	if _, ok := mustFromTuples(t, s, one).Lookup(one[0].KeyValue("NAME").String()); !ok {
		t.Fatal("one-row result misses its tuple")
	}
}

func mustFromTuples(t *testing.T, s *schema.Scheme, ts []*Tuple) *Relation {
	t.Helper()
	r, err := NewRelationFromTuples(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRelVersionKeyOrdered: a pinned version's key order is the order
// NewRelationFromTuples renders in, built once per version and shared
// by later pins of that version and by its view's rendering; the
// version's Tuples keep insertion order. A mutation makes a new
// version that builds its own order, while the older pin still gets
// its own version's order and does not displace the newer cache.
func TestRelVersionKeyOrdered(t *testing.T) {
	s := empScheme()
	ts := shuffledFixture(t, 300)
	r := NewRelation(s)
	if err := r.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	builds := obs.Default.Counter("core.keyorder.builds")
	check := func(v RelVersion) []*Tuple {
		t.Helper()
		ko, err := v.KeyOrdered()
		if err != nil {
			t.Fatal(err)
		}
		sorted := mustFromTuples(t, s, v.Tuples())
		want := sorted.String()
		if got := NewRelationKeyOrdered(s, ko).String(); got != want {
			t.Fatalf("key order renders differently from the sort path")
		}
		if got := v.View().String(); got != want {
			t.Fatalf("view renders differently from the sort path")
		}
		return ko
	}
	before := builds.Load()
	_, vs := Pin(r)
	old := vs[0]
	first := check(old)
	for i, tu := range old.Tuples() {
		if tu != ts[i] {
			t.Fatal("Tuples of a pinned version left insertion order")
		}
	}
	_, again := Pin(r)
	if ko, _ := again[0].KeyOrdered(); &ko[0] != &first[0] {
		t.Fatal("a second pin of an unchanged version rebuilt its key order")
	}
	if got := builds.Load() - before; got != 1 {
		t.Fatalf("%d key orders built for one version, want 1", got)
	}
	if err := r.InsertMerging(empTuple("emp0003", 95, 99, 3000)); err != nil {
		t.Fatal(err)
	}
	r.MustInsert(empTuple("a-first", 0, 9, 1))
	_, vs = Pin(r)
	newer := check(vs[0])
	if got := builds.Load() - before; got != 2 {
		t.Fatalf("%d key orders built for two versions, want 2", got)
	}
	if len(newer) != len(first)+1 || newer[0].KeyValue("NAME").String() != `"a-first"` {
		t.Fatal("new version's key order misses its insert")
	}
	check(old) // the stale pin sorts its own version ...
	if ko, _ := vs[0].KeyOrdered(); &ko[0] != &newer[0] {
		t.Fatal("... without displacing the newer version's cache")
	}
}
