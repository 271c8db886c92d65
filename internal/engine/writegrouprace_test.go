package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/schema"
	"repro/internal/storage"
)

// tornGroup is the engine suites' one torn-read detector. The writers
// it watches commit write groups that put the same keys into two
// relations, so at any epoch-consistent cut exprA and exprB (HQL over
// those relations) hold identical keys and both differences are empty;
// a tuple in either one is a cut that fell between the two halves of a
// group. It tests set equality, not a count, so no number of tears can
// cancel out. run is the evaluation path under test.
func tornGroup(run func(q string) (hql.Result, error), exprA, exprB string) (bool, error) {
	for _, q := range []string{exprA + ` MINUS ` + exprB, exprB + ` MINUS ` + exprA} {
		res, err := run(q)
		if err != nil {
			return false, fmt.Errorf("%s: %w", q, err)
		}
		if res.Relation.Cardinality() != 0 {
			return true, nil
		}
	}
	return false, nil
}

// sessionRun evaluates through Session.Query — plan cache, pin, engine.
func sessionRun(db *DB) func(string) (hql.Result, error) {
	return func(q string) (hql.Result, error) { return db.NewSession().Query(bg, q) }
}

// naiveRun evaluates through hql.EvalNaive — the oracle, which pins its
// own consistent cut — called directly so no physical plan can mask a
// hole in the naive path.
func naiveRun(st *storage.Store) func(string) (hql.Result, error) {
	return func(q string) (hql.Result, error) {
		e, err := hql.Parse(q)
		if err != nil {
			return hql.Result{}, err
		}
		return hql.EvalNaive(e, st)
	}
}

// TestTornGroupDetectorFires is the detector's negative control: the
// same logical write split into two groups — A first, B second — is
// exactly the half-visible state a torn read would show, and the
// detector must report it on both evaluation paths, whichever relation
// is ahead, and go quiet again once the second half lands. Two tears
// at once (one key ahead in each relation — an even count the old
// parity probe could not see) must be reported too.
func TestTornGroupDetectorFires(t *testing.T) {
	sa, sb := raceScheme("A"), raceScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)
	commit := func(key string, rels ...*core.Relation) {
		t.Helper()
		g := core.NewWriteGroup()
		for _, r := range rels {
			g.Insert(r, raceTuple(r.Scheme(), key, 1))
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, want bool) {
		t.Helper()
		for name, run := range map[string]func(string) (hql.Result, error){
			"session": sessionRun(OpenDB(st)), "naive": naiveRun(st),
		} {
			got, err := tornGroup(run, `A`, `B`)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s (%s path): detector reports torn=%v, want %v", when, name, got, want)
			}
		}
	}
	commit("k1", a, b)
	check("after a whole group", false)
	commit("k2", a)
	check("between the halves of a split group (A ahead)", true)
	commit("k2", b)
	check("after the second half", false)
	commit("k3", b)
	check("between the halves of a split group (B ahead)", true)
	commit("k4", a)
	check("two tears, one each way (even count)", true)
	commit("k3", a)
	commit("k4", b)
	check("after both second halves", false)
}

// TestWriteGroupAtomicityMultiRelation extends
// TestSnapshotIsolationMultiRelation from sequential batch writers to
// atomic write groups: a writer commits one core.WriteGroup per round
// inserting the same keys into relation A and relation B, while
// concurrent readers run
// multi-relation plans through Session.Query. With sequential batches a
// reader may legitimately observe A ahead of B between publications;
// with write groups that window must not exist:
//
//   - tornGroup never fires: `A MINUS B` and `B MINUS A` are both empty
//     at every epoch-consistent cut.
//   - `A INTERSECT B` contains whole groups only: a cardinality that
//     is not a multiple of the group's batch size is a half-visible
//     publication.
//
// Run under -race; zero torn-group observations is the acceptance
// criterion of the write-group layer.
func TestWriteGroupAtomicityMultiRelation(t *testing.T) {
	sa, sb := raceScheme("A"), raceScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)

	const rounds, batchN = 80, 5
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			mk := func(s *schema.Scheme) []*core.Tuple {
				ts := make([]*core.Tuple, batchN)
				for j := range ts {
					ts[j] = raceTuple(s, fmt.Sprintf("k%05d", i*batchN+j), int64(j))
				}
				return ts
			}
			g := core.NewWriteGroup()
			g.InsertBatch(a, mk(sa))
			g.InsertBatch(b, mk(sb))
			if err := g.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				torn, err := tornGroup(sessionRun(OpenDB(st)), `A`, `B`)
				if err != nil {
					t.Error(err)
					return
				}
				if torn {
					t.Error("torn group: A and B differ at a pinned cut")
					return
				}
				res, err := sess(st).Query(bg, `A INTERSECT B`)
				if err != nil {
					t.Errorf("A INTERSECT B: %v", err)
					return
				}
				if n := res.Relation.Cardinality(); n%batchN != 0 {
					t.Errorf("half-visible group: A INTERSECT B has %d tuples (batch %d)", n, batchN)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// Quiesced: both relations hold every group in full.
	torn, err := tornGroup(sessionRun(OpenDB(st)), `A`, `B`)
	if err != nil {
		t.Fatal(err)
	}
	if torn || a.Cardinality() != rounds*batchN || b.Cardinality() != rounds*batchN {
		t.Fatalf("final state: |A|=%d |B|=%d torn=%v", a.Cardinality(), b.Cardinality(), torn)
	}
}

// TestWriteGroupNaiveFallbackAtomicity drives the same torn-group
// detector through hql's naive evaluator — the oracle every planned
// query is compared with — which since the snapshot-complete work pins
// its own consistent cut instead of reading live state. Run under -race.
func TestWriteGroupNaiveFallbackAtomicity(t *testing.T) {
	sa, sb := raceScheme("A"), raceScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)

	const rounds, batchN = 60, 5
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			g := core.NewWriteGroup()
			for j := 0; j < batchN; j++ {
				k := fmt.Sprintf("k%05d", i*batchN+j)
				g.Insert(a, raceTuple(sa, k, int64(j)))
				g.Insert(b, raceTuple(sb, k, int64(j)))
			}
			if err := g.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				torn, err := tornGroup(naiveRun(st), `A`, `B`)
				if err != nil {
					t.Error(err)
					return
				}
				if torn {
					t.Error("torn group on the naive path: A and B differ at a pinned cut")
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
