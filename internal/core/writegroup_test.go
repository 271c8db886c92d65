package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
)

// TestWriteGroupEmpty: committing an empty group is free — no error,
// no epoch tick, and a relation-less group never touches a lock.
func TestWriteGroupEmpty(t *testing.T) {
	e0 := Epoch()
	g := NewWriteGroup()
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if Epoch() != e0 {
		t.Fatal("empty group ticked the epoch")
	}
	// Staging an empty batch stages nothing.
	r := NewRelation(kvScheme("R"))
	r.MarkPublished()
	g2 := NewWriteGroup()
	g2.InsertBatch(r, nil)
	if g2.Len() != 0 || g2.Relations() != 0 {
		t.Fatalf("empty batch staged %d ops over %d relations", g2.Len(), g2.Relations())
	}
	if err := g2.Commit(); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 0 || Epoch() != e0 {
		t.Fatal("empty-batch group mutated state")
	}
}

// TestWriteGroupSingleRelationEqualsInsertBatch: a group staging one
// batch into one relation must be observably identical to
// Relation.InsertBatch — same resulting tuples, one version bump, one
// epoch tick, and the same nothing-applied behavior on a duplicate
// key.
func TestWriteGroupSingleRelationEqualsInsertBatch(t *testing.T) {
	s := kvScheme("R")
	mkBatch := func() []*Tuple {
		ts := make([]*Tuple, 8)
		for i := range ts {
			ts[i] = kvTuple(s, fmt.Sprintf("k%02d", i), int64(i), 0, 9)
		}
		return ts
	}

	viaBatch, viaGroup := NewRelation(s), NewRelation(s)
	viaBatch.MarkPublished()
	viaGroup.MarkPublished()

	if err := viaBatch.InsertBatch(mkBatch()); err != nil {
		t.Fatal(err)
	}
	e0 := Epoch()
	g := NewWriteGroup()
	g.InsertBatch(viaGroup, mkBatch())
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if Epoch() != e0+1 {
		t.Fatalf("group epoch delta %d, want exactly 1", Epoch()-e0)
	}

	if !viaBatch.Equal(viaGroup) {
		t.Fatal("group-loaded relation differs from batch-loaded relation")
	}
	if viaBatch.Version() != viaGroup.Version() {
		t.Fatalf("version %d vs %d", viaBatch.Version(), viaGroup.Version())
	}
	if err := viaGroup.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	// Duplicate key in the staged batch: error, nothing applied —
	// exactly like InsertBatch.
	bad := NewWriteGroup()
	bad.InsertBatch(viaGroup, []*Tuple{
		kvTuple(s, "fresh", 1, 0, 9),
		kvTuple(s, "k03", 2, 0, 9),
	})
	err := bad.Commit()
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("want duplicate-key error, got %v", err)
	}
	if viaGroup.Cardinality() != 8 || viaGroup.Version() != viaBatch.Version() {
		t.Fatal("failed group must leave the relation untouched")
	}
}

// TestWriteGroupValidationFailureLeavesAllUntouched: a group spanning
// three relations whose last staged relation fails validation must
// apply nothing anywhere — versions, cardinalities and epoch all
// unchanged, for both duplicate-key and contradicting-merge failures.
func TestWriteGroupValidationFailureLeavesAllUntouched(t *testing.T) {
	sa, sb, sc := kvScheme("A"), kvScheme("B"), kvScheme("C")
	a, b, c := NewRelation(sa), NewRelation(sb), NewRelation(sc)
	for _, r := range []*Relation{a, b, c} {
		r.MarkPublished()
	}
	c.MustInsert(kvTuple(sc, "taken", 7, 0, 9))

	check := func(wantErr string, stage func(g *WriteGroup)) {
		t.Helper()
		e0 := Epoch()
		va, vb, vc := a.Version(), b.Version(), c.Version()
		g := NewWriteGroup()
		stage(g)
		err := g.Commit()
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("want %q error, got %v", wantErr, err)
		}
		if a.Version() != va || b.Version() != vb || c.Version() != vc {
			t.Fatal("failed group moved a version")
		}
		if a.Cardinality() != 0 || b.Cardinality() != 0 || c.Cardinality() != 1 {
			t.Fatal("failed group applied tuples")
		}
		if Epoch() != e0 {
			t.Fatal("failed group ticked the epoch")
		}
	}

	// Duplicate against an existing tuple in the last-staged relation.
	check("duplicate key", func(g *WriteGroup) {
		g.Insert(a, kvTuple(sa, "x", 1, 0, 9))
		g.InsertBatch(b, []*Tuple{kvTuple(sb, "y", 2, 0, 9)})
		g.Insert(c, kvTuple(sc, "taken", 3, 0, 9))
	})
	// Duplicate within the group itself.
	check("duplicate key", func(g *WriteGroup) {
		g.Insert(a, kvTuple(sa, "x", 1, 0, 9))
		g.Insert(b, kvTuple(sb, "dup", 2, 0, 9))
		g.Insert(b, kvTuple(sb, "dup", 3, 0, 9))
	})
	// Contradicting merge: same key, same chronon, different value.
	check("contradicts", func(g *WriteGroup) {
		g.Insert(a, kvTuple(sa, "x", 1, 0, 9))
		g.InsertMerging(c, kvTuple(sc, "taken", 8, 5, 9))
	})
}

// TestWriteGroupMerges: merging inserts inside a group — onto live
// tuples (twice onto the same slot) and onto a tuple appended earlier
// in the same group — apply correctly under one version bump, and
// copy-on-write under an outstanding pin.
func TestWriteGroupMerges(t *testing.T) {
	s := kvScheme("R")
	r := NewRelation(s)
	r.MarkPublished()
	r.MustInsert(kvTuple(s, "a", 1, 0, 9))
	v0 := r.Version()

	_, vers := Pin(r) // outstanding snapshot: merges must copy-on-write
	pinned := vers[0]

	g := NewWriteGroup()
	g.InsertMerging(r, kvTuple(s, "a", 1, 20, 29)) // merge onto live slot
	g.InsertMerging(r, kvTuple(s, "a", 1, 40, 49)) // second merge, same slot
	g.Insert(r, kvTuple(s, "b", 2, 0, 9))          // fresh append
	g.InsertMerging(r, kvTuple(s, "b", 2, 60, 69)) // merge onto the in-group append
	g.InsertMerging(r, kvTuple(s, "new", 3, 0, 9)) // merging insert of a fresh key
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := r.Cardinality(); got != 3 {
		t.Fatalf("cardinality %d, want 3", got)
	}
	a, _ := r.Lookup(`"a"`)
	if !a.Lifespan().Equal(ls("{[0,9],[20,29],[40,49]}")) {
		t.Fatalf("merged lifespan %s", a.Lifespan())
	}
	b, _ := r.Lookup(`"b"`)
	if !b.Lifespan().Equal(ls("{[0,9],[60,69]}")) {
		t.Fatalf("in-group merge lifespan %s", b.Lifespan())
	}
	if r.Version() != v0+1 {
		t.Fatalf("version %d, want one bump from %d", r.Version(), v0)
	}
	if ts := r.Tuples(); ts[0] != a {
		t.Fatal("the merge onto a live tuple did not keep its slot")
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The pin predates the group: it must still see the original tuple.
	if pinned.Cardinality() != 1 {
		t.Fatal("pinned version grew past the group")
	}
	if pt, _ := pinned.Lookup(`"a"`); !pt.Lifespan().Equal(ls("{[0,9]}")) {
		t.Fatalf("pinned tuple reflects the group's merge: %s", pt.Lifespan())
	}

	// Frozen views reject group mutation before anything locks.
	gv := NewWriteGroup()
	gv.Insert(pinned.View(), kvTuple(s, "z", 9, 0, 9))
	if err := gv.Commit(); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("group on a frozen view must fail, got %v", err)
	}
}

// TestWriteGroupAtomicCut is the write-side extension of
// TestPinConsistentCut: a writer commits groups inserting the same
// keys into A and B in one atomic publication, so — unlike the
// sequential-batch writer, where pins legitimately observe B trailing
// A — every pin must see |A| equal to |B| exactly, at whole-batch
// granularity. Any inequality is a torn group. Run with -race.
func TestWriteGroupAtomicCut(t *testing.T) {
	sa, sb := kvScheme("A"), kvScheme("B")
	a, b := NewRelation(sa), NewRelation(sb)
	a.MarkPublished()
	b.MarkPublished()

	const rounds, batchN = 60, 7
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			mk := func(s *schema.Scheme) []*Tuple {
				ts := make([]*Tuple, batchN)
				for j := range ts {
					ts[j] = kvTuple(s, fmt.Sprintf("k%04d", i*batchN+j), int64(j), 0, 9)
				}
				return ts
			}
			g := NewWriteGroup()
			g.InsertBatch(a, mk(sa))
			g.InsertBatch(b, mk(sb))
			if err := g.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				_, vers := Pin(a, b)
				ca, cb := vers[0].Cardinality(), vers[1].Cardinality()
				if ca != cb {
					t.Errorf("torn group: |A|=%d |B|=%d", ca, cb)
					return
				}
				if ca%batchN != 0 {
					t.Errorf("torn batch inside a group: |A|=%d", ca)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.Cardinality() != rounds*batchN || b.Cardinality() != rounds*batchN {
		t.Fatalf("final |A|=%d |B|=%d", a.Cardinality(), b.Cardinality())
	}
}

// TestWriteGroupConcurrentCommits drives two writers committing groups
// over the same two relations staged in opposite orders — the shape
// that deadlocks without a global lock order — plus a pinner. The test
// completing at all (under -race, with correct final state) is the
// assertion.
func TestWriteGroupConcurrentCommits(t *testing.T) {
	sa, sb := kvScheme("A"), kvScheme("B")
	a, b := NewRelation(sa), NewRelation(sb)
	a.MarkPublished()
	b.MarkPublished()

	const rounds = 120
	var wg sync.WaitGroup
	commit := func(prefix string, first, second *Relation, fs, ss *schema.Scheme) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			g := NewWriteGroup()
			g.Insert(first, kvTuple(fs, fmt.Sprintf("%s%04da", prefix, i), 1, 0, 9))
			g.Insert(second, kvTuple(ss, fmt.Sprintf("%s%04db", prefix, i), 2, 0, 9))
			if err := g.Commit(); err != nil {
				t.Errorf("%s round %d: %v", prefix, i, err)
				return
			}
		}
	}
	wg.Add(2)
	go commit("x", a, b, sa, sb)
	go commit("y", b, a, sb, sa)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_, vers := Pin(a, b)
			if vers[0].Cardinality() != vers[1].Cardinality() {
				t.Errorf("torn group: |A|=%d |B|=%d", vers[0].Cardinality(), vers[1].Cardinality())
				return
			}
		}
	}()
	wg.Wait()
	if a.Cardinality() != 2*rounds || b.Cardinality() != 2*rounds {
		t.Fatalf("final |A|=%d |B|=%d, want %d each", a.Cardinality(), b.Cardinality(), 2*rounds)
	}

	// Conflicting concurrent groups: same fresh key from both sides —
	// exactly one must win, and the loser must leave no trace.
	ga, gb := NewWriteGroup(), NewWriteGroup()
	ga.Insert(a, kvTuple(sa, "contested", 1, 0, 9))
	gb.Insert(a, kvTuple(sa, "contested", 2, 0, 9))
	errs := make(chan error, 2)
	go func() { errs <- ga.Commit() }()
	go func() { errs <- gb.Commit() }()
	e1, e2 := <-errs, <-errs
	if (e1 == nil) == (e2 == nil) {
		t.Fatalf("want exactly one winner, got %v / %v", e1, e2)
	}
	if a.Cardinality() != 2*rounds+1 {
		t.Fatalf("contested commit left |A|=%d", a.Cardinality())
	}
}
