package core

import (
	"fmt"

	"repro/internal/chronon"
	"sync"
	"testing"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// concScheme builds the fixture scheme for the concurrency tests.
func concScheme() *schema.Scheme {
	full := lifespan.Interval(0, 999)
	return schema.MustNew("CONC", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

func concTuple(rs *schema.Scheme, name string, lo, hi int, sal int64) *Tuple {
	clo, chi := chronon.Time(lo), chronon.Time(hi)
	return NewTupleBuilder(rs, lifespan.Interval(clo, chi)).
		Key("NAME", value.String_(name)).
		Set("SAL", clo, chi, value.Int(sal)).
		MustBuild()
}

// TestConcurrentReadersWithWriters hammers one relation with concurrent
// snapshot readers, lookups, operator evaluations and renderings while
// two writers interleave Insert (fresh keys) and InsertMerging (lifespan
// extensions of existing keys). Run under -race this exercises the
// relation's RWMutex write story: snapshot slices must stay immutable
// across appends and copy-on-write merges.
func TestConcurrentReadersWithWriters(t *testing.T) {
	rs := concScheme()
	r := NewRelation(rs)
	const seedTuples = 20
	for i := 0; i < seedTuples; i++ {
		r.MustInsert(concTuple(rs, fmt.Sprintf("w%04d", i), 0, 4, int64(1000*(i+1))))
	}

	const inserts, merges, readers = 150, 150, 6
	var wg sync.WaitGroup
	errs := make(chan error, 2+readers)

	// Writer 1: fresh keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := r.Insert(concTuple(rs, fmt.Sprintf("n%04d", i), 10, 19, int64(i))); err != nil {
				errs <- fmt.Errorf("insert: %w", err)
				return
			}
		}
	}()
	// Writer 2: merges extending the seed tuples' histories over
	// disjoint chronons (no contradictions by construction).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			name := fmt.Sprintf("w%04d", i%seedTuples)
			lo := 100 + 10*(i/seedTuples)
			if err := r.InsertMerging(concTuple(rs, name, lo, lo+4, int64(i))); err != nil {
				errs <- fmt.Errorf("insert-merging: %w", err)
				return
			}
		}
	}()
	// Readers: snapshots, lookups, algebra, rendering.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			L := lifespan.Interval(0, 50)
			for i := 0; i < 60; i++ {
				ts := r.Tuples()
				for _, tp := range ts {
					_ = tp.Lifespan()
				}
				if _, ok := r.Lookup(`"w0003"`); !ok {
					errs <- fmt.Errorf("reader %d: seed tuple w0003 vanished", g)
					return
				}
				if _, err := TimesliceStatic(r, L); err != nil {
					errs <- fmt.Errorf("reader %d: timeslice: %w", g, err)
					return
				}
				if i%17 == 0 {
					_ = r.String()
					_ = r.Lifespan()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := r.Cardinality(), seedTuples+inserts; got != want {
		t.Fatalf("cardinality after writers = %d, want %d", got, want)
	}
	// Every merge landed: each seed tuple's history gained its extensions.
	tp, ok := r.Lookup(`"w0000"`)
	if !ok {
		t.Fatal("w0000 missing")
	}
	wantIvs := 1 + (merges+seedTuples-1)/seedTuples // seed interval plus one per merge round
	if got := tp.Lifespan().NumIntervals(); got != wantIvs {
		t.Fatalf("w0000 has %d lifespan intervals, want %d", got, wantIvs)
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatalf("invariants after concurrent writes: %v", err)
	}
}

// TestSnapshotStableAcrossMerge pins the copy-on-write contract: a
// snapshot taken before a merge must keep serving the pre-merge tuple.
func TestSnapshotStableAcrossMerge(t *testing.T) {
	rs := concScheme()
	r := NewRelation(rs)
	r.MustInsert(concTuple(rs, "solo", 0, 4, 1000))
	snap := r.Tuples()
	before := snap[0]
	if err := r.InsertMerging(concTuple(rs, "solo", 10, 14, 2000)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if snap[0] != before {
		t.Fatal("snapshot mutated by merge; copy-on-write broken")
	}
	after := r.Tuples()
	if after[0] == before {
		t.Fatal("relation did not absorb the merge")
	}
	if got := after[0].Lifespan().NumIntervals(); got != 2 {
		t.Fatalf("merged tuple has %d intervals, want 2", got)
	}
}
