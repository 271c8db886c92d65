package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestParallelQueriesRaceWriteGroups drives the parallel executor
// against concurrent write-group commits and durable checkpoints, with
// a cardinality-parity torn-snapshot detector. Relations A and B hold
// key-disjoint tuples and start with equal cardinalities; every write
// group inserts exactly one tuple into each, so at every
// epoch-consistent cut |A| + |B| is even. The probe query unions two
// parallel-eligible selects over A and B inside one pinned snapshot —
// an odd cardinality means a partition worker observed one relation of
// a group without the other, i.e. a torn snapshot. A checkpointer
// races the same store to put the WAL/checkpoint path under the same
// pressure. Run under -race.
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
		a.MustInsert(raceTuple(sa, fmt.Sprintf("a%05d", i), int64(i)))
		b.MustInsert(raceTuple(sb, fmt.Sprintf("b%05d", i), int64(i)))
	}
	st.Put(a)
	st.Put(b)
	BuildIndexes(a)
	BuildIndexes(b)
	db := OpenDB(st)
	defer db.Close()

	const rounds = 60
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			g := core.NewWriteGroup()
			g.Insert(a, raceTuple(sa, fmt.Sprintf("a%05d", seedN+i), int64(i)))
			g.Insert(b, raceTuple(sb, fmt.Sprintf("b%05d", seedN+i), int64(i)))
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

	// Both selects plan parallel filters over their base scans (V >= 0
	// has no equality conjunct to index), and the union on top sees both
	// relations through the one snapshot the whole plan pinned.
	const probe = `(SELECT WHEN V >= 0 FROM A) UNIONMERGE (SELECT WHEN V >= 0 FROM B)`
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				degree := []int{2, 4, 8}[(w+i)%3]
				res, err := sess(st).Query(WithWorkers(context.Background(), degree), probe)
				if err != nil {
					t.Errorf("probe at degree %d: %v", degree, err)
					return
				}
				n := res.Relation.Cardinality()
				if n%2 != 0 {
					t.Errorf("torn snapshot: |A|+|B| = %d (odd) at degree %d", n, degree)
					return
				}
				if n < 2*seedN || n > 2*(seedN+rounds) {
					t.Errorf("cardinality %d outside [%d,%d]", n, 2*seedN, 2*(seedN+rounds))
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

	// Quiesced: every group fully visible, parity intact.
	res, err := sess(st).Query(WithWorkers(context.Background(), 4), probe)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Cardinality(); got != 2*(seedN+rounds) {
		t.Fatalf("final cardinality %d, want %d", got, 2*(seedN+rounds))
	}
}
