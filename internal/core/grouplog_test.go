package core

import (
	"errors"
	"strings"
	"testing"
)

// fakeLog is a GroupLog that records what it was handed and answers
// with err.
type fakeLog struct {
	err   error
	calls int
	fn    func(g *WriteGroup)
}

func (l *fakeLog) LogGroup(g *WriteGroup) error {
	l.calls++
	if l.fn != nil {
		l.fn(g)
	}
	return l.err
}

// TestCommitHookErrorAborts: a log error must behave exactly like a
// validation failure — no tuples applied, no version bump, no epoch
// tick, and the group reported as aborted.
func TestCommitHookErrorAborts(t *testing.T) {
	s1, s2 := kvScheme("HookA"), kvScheme("HookB")
	a, b := NewRelation(s1), NewRelation(s2)
	a.MarkPublished()
	b.MarkPublished()

	log := &fakeLog{err: errors.New("durability layer said no")}
	a.AttachLog(log)
	b.AttachLog(log)

	e0 := Epoch()
	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "k1", 1, 0, 9))
	g.Insert(b, kvTuple(s2, "k2", 2, 0, 9))
	if err := g.Commit(); !errors.Is(err, log.err) {
		t.Fatalf("Commit error = %v, want the log's error", err)
	}
	if log.calls != 1 {
		t.Fatalf("log called %d times, want once for the group", log.calls)
	}
	if a.Cardinality() != 0 || b.Cardinality() != 0 {
		t.Fatalf("log abort applied tuples: |a|=%d |b|=%d", a.Cardinality(), b.Cardinality())
	}
	if a.Version() != 0 || b.Version() != 0 {
		t.Fatalf("log abort bumped versions: %d, %d", a.Version(), b.Version())
	}
	if Epoch() != e0 {
		t.Fatal("log abort ticked the epoch")
	}

	// With the log detached again the same group commits cleanly — the
	// abort left it re-commitable, like a corrected validation failure.
	a.DetachLog(log)
	b.DetachLog(log)
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if log.calls != 1 {
		t.Fatal("a detached log was still called")
	}
	if a.Cardinality() != 1 || b.Cardinality() != 1 {
		t.Fatalf("recommit applied |a|=%d |b|=%d, want 1 and 1", a.Cardinality(), b.Cardinality())
	}
}

// TestCommitHookSeesStagedOps: the log observes the full group via Ops
// in staging order, grouped by relation, before anything applies; a
// relation attached to no log is left out of the walk.
func TestCommitHookSeesStagedOps(t *testing.T) {
	s1, s2, s3 := kvScheme("HookC"), kvScheme("HookD"), kvScheme("HookE")
	a, b, c := NewRelation(s1), NewRelation(s2), NewRelation(s3)
	a.MarkPublished()
	b.MarkPublished()

	type seenOp struct {
		rel     string
		key     string
		merging bool
	}
	var seen []seenOp
	var cardAtLog int
	log := &fakeLog{}
	log.fn = func(g *WriteGroup) {
		g.Ops(log, func(r *Relation, tp *Tuple, merging bool) {
			seen = append(seen, seenOp{rel: r.Scheme().Name, key: tp.key(r.scheme).String(), merging: merging})
		})
		// The log runs pre-apply: the relations are still empty.
		cardAtLog = len(a.tuples) + len(b.tuples) + len(c.tuples)
	}
	a.AttachLog(log)
	b.AttachLog(log)

	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "x", 1, 0, 4))
	g.Insert(c, kvTuple(s3, "z", 3, 0, 4))
	g.InsertMerging(b, kvTuple(s2, "y", 2, 0, 4))
	g.InsertMerging(a, kvTuple(s1, "x", 1, 5, 9))
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if cardAtLog != 0 {
		t.Fatalf("log saw %d applied tuples, want 0", cardAtLog)
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
	if c.Cardinality() != 1 {
		t.Fatal("the unlogged relation's op was not applied")
	}
}

// TestWriteGroupSpanningTwoLogsRefused: a group over relations carrying
// two different logs is refused before either log is called, with
// nothing applied; relations with no log may join either side.
func TestWriteGroupSpanningTwoLogsRefused(t *testing.T) {
	s1, s2, s3 := kvScheme("LogA"), kvScheme("LogB"), kvScheme("LogC")
	a, b, c := NewRelation(s1), NewRelation(s2), NewRelation(s3)
	for _, r := range []*Relation{a, b, c} {
		r.MarkPublished()
	}
	la, lb := &fakeLog{}, &fakeLog{}
	a.AttachLog(la)
	b.AttachLog(lb)

	e0 := Epoch()
	g := NewWriteGroup()
	g.Insert(a, kvTuple(s1, "k", 1, 0, 9))
	g.Insert(c, kvTuple(s3, "k", 1, 0, 9))
	g.Insert(b, kvTuple(s2, "k", 2, 0, 9))
	if err := g.Commit(); err == nil || !strings.Contains(err.Error(), "spans two logs") {
		t.Fatalf("Commit error = %v, want a two-log refusal", err)
	}
	if la.calls != 0 || lb.calls != 0 {
		t.Fatalf("logs called %d and %d times, want neither", la.calls, lb.calls)
	}
	for _, r := range []*Relation{a, b, c} {
		if r.Cardinality() != 0 || r.Version() != 0 {
			t.Fatalf("refused group applied to %s", r.Scheme().Name)
		}
	}
	if Epoch() != e0 {
		t.Fatal("refused group ticked the epoch")
	}

	// One log attached to both: the same group logs once and applies.
	b.AttachLog(la)
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if la.calls != 1 || lb.calls != 0 {
		t.Fatalf("logs called %d and %d times, want 1 and 0", la.calls, lb.calls)
	}
	// DetachLog of a log the relation no longer carries leaves it be.
	b.DetachLog(lb)
	if b.log != GroupLog(la) {
		t.Fatal("DetachLog removed a log it did not name")
	}
}
