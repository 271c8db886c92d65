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

// TestWriteGroupAtomicityMultiRelation extends the multi_rel_race
// methodology from sequential batch writers to atomic write groups: a
// writer commits one core.WriteGroup per round inserting the same keys
// into relation A and relation B, while concurrent readers run
// multi-relation plans through Session.Query. With sequential batches a
// reader may legitimately observe A ahead of B between publications;
// with write groups that window must not exist:
//
//   - `A MINUS B` and `B MINUS A` are both empty at every
//     epoch-consistent cut — any surviving tuple is a torn group, one
//     relation of the group observed and the other not.
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
	BuildIndexes(a)
	BuildIndexes(b)

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

	queries := []string{
		`A MINUS B`,
		`B MINUS A`,
		`A INTERSECT B`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := sess(st).Query(bg, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				n := res.Relation.Cardinality()
				switch q {
				case `A MINUS B`, `B MINUS A`:
					if n != 0 {
						t.Errorf("torn group: %s has %d tuples", q, n)
						return
					}
				case `A INTERSECT B`:
					if n%batchN != 0 {
						t.Errorf("half-visible group: %s has %d tuples (batch %d)", q, n, batchN)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// Quiesced: both relations hold every group in full.
	res, err := sess(st).Query(bg, `A MINUS B`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 0 || a.Cardinality() != rounds*batchN || b.Cardinality() != rounds*batchN {
		t.Fatalf("final state: |A|=%d |B|=%d |A−B|=%d",
			a.Cardinality(), b.Cardinality(), res.Relation.Cardinality())
	}
}

// TestWriteGroupNaiveFallbackAtomicity drives the same torn-group
// detector through hql's naive evaluator — the planner's fallback —
// which since the snapshot-complete work pins its own consistent cut
// instead of reading live state. EvalNaive is called directly so no
// physical plan can mask a hole in the naive path. Run under -race.
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
				for _, q := range []string{`A MINUS B`, `B MINUS A`} {
					e, err := hql.Parse(q)
					if err != nil {
						t.Errorf("parse %s: %v", q, err)
						return
					}
					res, err := hql.EvalNaive(e, st)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if n := res.Relation.Cardinality(); n != 0 {
						t.Errorf("torn group on the naive path: %s has %d tuples", q, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
