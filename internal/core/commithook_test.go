package core

import (
	"errors"
	"testing"
)

// TestCommitHookErrorAborts: a hook error must behave exactly like a
// validation failure — no tuples applied, no version bump, no epoch
// tick, and the group reported as aborted.
func TestCommitHookErrorAborts(t *testing.T) {
	s1, s2 := kvScheme("HookA"), kvScheme("HookB")
	a, b := NewRelation(s1), NewRelation(s2)
	a.MarkPublished()
	b.MarkPublished()

	hookErr := errors.New("durability layer said no")
	prev := SetCommitHook(func(g *WriteGroup) error { return hookErr })
	defer SetCommitHook(prev)

	e0 := Epoch()
	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "k1", 1, 0, 9))
	g.Insert(b, kvTuple(s2, "k2", 2, 0, 9))
	if err := g.Commit(); !errors.Is(err, hookErr) {
		t.Fatalf("Commit error = %v, want the hook error", err)
	}
	if a.Cardinality() != 0 || b.Cardinality() != 0 {
		t.Fatalf("hook abort applied tuples: |a|=%d |b|=%d", a.Cardinality(), b.Cardinality())
	}
	if a.Version() != 0 || b.Version() != 0 {
		t.Fatalf("hook abort bumped versions: %d, %d", a.Version(), b.Version())
	}
	if Epoch() != e0 {
		t.Fatal("hook abort ticked the epoch")
	}

	// With the hook gone again the same group commits cleanly — the
	// abort left it re-commitable, like a corrected validation failure.
	SetCommitHook(prev)
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.Cardinality() != 1 || b.Cardinality() != 1 {
		t.Fatalf("recommit applied |a|=%d |b|=%d, want 1 and 1", a.Cardinality(), b.Cardinality())
	}
}

// TestCommitHookSeesStagedOps: the hook observes the full group via
// Ops/Rels in staging order, before anything applies.
func TestCommitHookSeesStagedOps(t *testing.T) {
	s1, s2 := kvScheme("HookC"), kvScheme("HookD")
	a, b := NewRelation(s1), NewRelation(s2)
	a.MarkPublished()
	b.MarkPublished()

	type seenOp struct {
		rel     string
		key     string
		merging bool
	}
	var seen []seenOp
	var rels []string
	var cardAtHook int
	prev := SetCommitHook(func(g *WriteGroup) error {
		for _, r := range g.Rels() {
			rels = append(rels, r.Scheme().Name)
		}
		g.Ops(func(r *Relation, tp *Tuple, merging bool) {
			seen = append(seen, seenOp{rel: r.Scheme().Name, key: tp.key(r.scheme).String(), merging: merging})
		})
		// The hook runs pre-apply: the relations are still empty.
		cardAtHook = len(a.tuples) + len(b.tuples)
		return nil
	})
	defer SetCommitHook(prev)

	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "x", 1, 0, 4))
	g.InsertMerging(b, kvTuple(s2, "y", 2, 0, 4))
	g.InsertMerging(a, kvTuple(s1, "x", 1, 5, 9))
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if cardAtHook != 0 {
		t.Fatalf("hook saw %d applied tuples, want 0", cardAtHook)
	}
	if len(rels) != 2 || rels[0] != "HookC" || rels[1] != "HookD" {
		t.Fatalf("Rels = %v, want staging order [HookC HookD]", rels)
	}
	want := []seenOp{
		{rel: "HookC", merging: false},
		{rel: "HookC", merging: true},
		{rel: "HookD", merging: true},
	}
	if len(seen) != len(want) {
		t.Fatalf("Ops walked %d mutations, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i].rel != w.rel || seen[i].merging != w.merging {
			t.Errorf("op %d = %+v, want rel %s merging %v", i, seen[i], w.rel, w.merging)
		}
	}
}
