package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestParallelQueriesRaceWriteGroups drives the parallel executor
// against concurrent write-group commits and durable checkpoints, under
// the shared torn-group detector (tornGroup): relations A and B start
// with the same keys and every write group inserts one new key into
// both, so at every epoch-consistent cut the two hold identical keys.
// The probes difference two parallel-eligible selects over A and B
// inside one pinned snapshot — a surviving tuple means a partition
// worker observed one relation of a group without the other. A
// checkpointer races the same store to put the WAL/checkpoint path
// under the same pressure. Run under -race.
func TestParallelQueriesRaceWriteGroups(t *testing.T) {
	lowerParallelThreshold(t, 8)

	st, _, err := storage.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := raceScheme("A"), raceScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	const seedN = 100
	for i := 0; i < seedN; i++ {
		a.MustInsert(raceTuple(sa, fmt.Sprintf("k%05d", i), int64(i)))
		b.MustInsert(raceTuple(sb, fmt.Sprintf("k%05d", i), int64(i)))
	}
	st.Put(a)
	st.Put(b)
	sliceEach(t, st, "A", "B")
	db := OpenDB(st)
	defer db.Close()

	const rounds = 60
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			g := core.NewWriteGroup()
			g.Insert(a, raceTuple(sa, fmt.Sprintf("k%05d", seedN+i), int64(i)))
			g.Insert(b, raceTuple(sb, fmt.Sprintf("k%05d", seedN+i), int64(i)))
			if err := g.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	ckptDone := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if err := db.Checkpoint(); err != nil {
				ckptDone <- err
				return
			}
		}
		ckptDone <- nil
	}()

	// Both selects are filters over their base scans (V >= 0 has no
	// equality conjunct to index) that run partitioned, and the
	// difference on top sees both relations through the one snapshot the
	// whole plan pinned.
	const selA, selB = `(SELECT WHEN V >= 0 FROM A)`, `(SELECT WHEN V >= 0 FROM B)`
	degrees := []int{2, 4, 8}
	dbAt := make(map[int]*DB, len(degrees))
	for _, d := range degrees {
		dbAt[d] = OpenDBOptions(st, DBOptions{Workers: d})
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				degree := degrees[(w+i)%len(degrees)]
				torn, err := tornGroup(sessionRun(dbAt[degree]), selA, selB)
				if err != nil {
					t.Errorf("probe at degree %d: %v", degree, err)
					return
				}
				if torn {
					t.Errorf("torn snapshot: A and B differ at a pinned cut, degree %d", degree)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	// Quiesced: every group fully visible.
	res, err := dbAt[4].NewSession().Query(bg, selA+` INTERSECT `+selB)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Cardinality(); got != seedN+rounds {
		t.Fatalf("final cardinality %d, want %d", got, seedN+rounds)
	}
}
