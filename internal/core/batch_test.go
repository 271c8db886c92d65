package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// kvScheme is a minimal keyed scheme for batch and snapshot tests.
func kvScheme(name string) *schema.Scheme {
	full := ls("{[0,999]}")
	return schema.MustNew(name, []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

// kvTuple builds one tuple keyed k with value v alive on [lo,hi].
func kvTuple(s *schema.Scheme, k string, v int64, lo, hi chronon.Time) *Tuple {
	return NewTupleBuilder(s, lifespan.Interval(lo, hi)).
		Key("K", value.String_(k)).
		Set("V", lo, hi, value.Int(v)).
		MustBuild()
}

// batchRecorder collects change notifications.
type batchRecorder struct {
	mu      sync.Mutex
	changes []Change
}

func (b *batchRecorder) RelationChanged(_ *Relation, c Change) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.changes = append(b.changes, c)
}

// observeWith installs o as r's observer and returns the version it
// starts from.
func observeWith(r *Relation, o Observer) uint64 {
	var v uint64
	r.Observe(func(start uint64) Observer { v = start; return o })
	return v
}

func TestInsertBatchAtomicity(t *testing.T) {
	s := kvScheme("R")
	r := NewRelation(s)
	rec := &batchRecorder{}
	observeWith(r, rec)

	batch := make([]*Tuple, 10)
	for i := range batch {
		batch[i] = kvTuple(s, fmt.Sprintf("k%02d", i), int64(i), 0, 9)
	}
	v0 := r.Version()
	if err := r.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := r.Cardinality(); got != 10 {
		t.Fatalf("cardinality = %d, want 10", got)
	}
	if got := r.Version(); got != v0+1 {
		t.Fatalf("version = %d, want one bump to %d", got, v0+1)
	}
	if len(rec.changes) != 1 {
		t.Fatalf("notifications = %d, want one coalesced ChangeBatch", len(rec.changes))
	}
	c := rec.changes[0]
	if c.Kind != ChangeBatch || c.Pos != 0 || len(c.Batch) != 10 || c.Version != v0+1 {
		t.Fatalf("unexpected change: %+v", c)
	}
	if _, ok := r.Lookup(`"k07"`); !ok {
		t.Fatal("batch tuple not resolvable by key")
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	// A duplicate — against existing tuples or within the batch — fails
	// the whole call with nothing applied and nothing notified.
	for _, bad := range [][]*Tuple{
		{kvTuple(s, "fresh", 1, 0, 9), kvTuple(s, "k03", 2, 0, 9)},
		{kvTuple(s, "dup", 1, 0, 9), kvTuple(s, "dup", 2, 0, 9)},
	} {
		err := r.InsertBatch(bad)
		if err == nil || !strings.Contains(err.Error(), "duplicate key") {
			t.Fatalf("want duplicate-key error, got %v", err)
		}
		if r.Cardinality() != 10 || r.Version() != v0+1 || len(rec.changes) != 1 {
			t.Fatal("failed batch must leave the relation untouched")
		}
	}

	// Empty batches are free: no version bump, no notification.
	if err := r.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if r.Version() != v0+1 || len(rec.changes) != 1 {
		t.Fatal("empty batch must be a no-op")
	}
}

// TestInsertBatchDuplicateRollsBackKeys: a batch whose third tuple
// repeats its first fails after its first two keys entered the key map
// in the same pass; the failure takes them back, so neither is
// findable, the cardinality is unchanged, and a later valid batch with
// those keys succeeds.
func TestInsertBatchDuplicateRollsBackKeys(t *testing.T) {
	s := kvScheme("R")
	r := NewRelation(s)
	r.MustInsert(kvTuple(s, "live", 0, 0, 9))
	bad := []*Tuple{kvTuple(s, "a", 1, 0, 9), kvTuple(s, "b", 2, 0, 9), kvTuple(s, "a", 3, 0, 9)}
	if err := r.InsertBatch(bad); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("want duplicate-key error, got %v", err)
	}
	for _, k := range []string{`"a"`, `"b"`} {
		if _, ok := r.Lookup(k); ok {
			t.Fatalf("key %s of the failed batch is findable", k)
		}
	}
	if _, ok := r.Lookup(`"live"`); !ok {
		t.Fatal("the failed batch took back a live key")
	}
	if r.Cardinality() != 1 {
		t.Fatalf("cardinality = %d, want 1", r.Cardinality())
	}
	if err := r.InsertBatch([]*Tuple{kvTuple(s, "a", 1, 0, 9), kvTuple(s, "b", 2, 0, 9)}); err != nil {
		t.Fatalf("valid batch after the failed one: %v", err)
	}
	if tp, ok := r.Lookup(`"b"`); !ok || tp != r.Tuples()[2] {
		t.Fatal("key b does not resolve to its tuple")
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochTicksOnlyForPublishedRelations(t *testing.T) {
	s := kvScheme("R")

	private := NewRelation(s)
	e0 := Epoch()
	private.MustInsert(kvTuple(s, "a", 1, 0, 9))
	if Epoch() != e0 {
		t.Fatal("unpublished mutation must not tick the epoch")
	}

	pub := NewRelation(s)
	pub.MarkPublished()
	e1 := Epoch()
	pub.MustInsert(kvTuple(s, "a", 1, 0, 9))
	if Epoch() != e1+1 {
		t.Fatalf("published insert: epoch %d, want %d", Epoch(), e1+1)
	}
	if err := pub.InsertBatch([]*Tuple{kvTuple(s, "b", 2, 0, 9), kvTuple(s, "c", 3, 0, 9)}); err != nil {
		t.Fatal(err)
	}
	if Epoch() != e1+2 {
		t.Fatalf("published batch: epoch %d, want one tick to %d", Epoch(), e1+2)
	}
}

func TestPinnedVersionAndView(t *testing.T) {
	s := kvScheme("R")
	r := NewRelation(s)
	r.MustInsert(kvTuple(s, "a", 1, 0, 9))
	r.MustInsert(kvTuple(s, "b", 2, 0, 9))

	_, vers := Pin(r)
	v := vers[0]
	if v.Cardinality() != 2 || v.Version() != r.Version() {
		t.Fatalf("pin: card %d version %d", v.Cardinality(), v.Version())
	}

	// Later mutations are invisible to the pin: inserts extend past the
	// pinned prefix, merges copy-on-write.
	r.MustInsert(kvTuple(s, "c", 3, 0, 9))
	if err := r.InsertMerging(kvTuple(s, "a", 1, 20, 29)); err != nil {
		t.Fatal(err)
	}
	if v.Cardinality() != 2 {
		t.Fatal("pinned version grew")
	}
	if _, ok := v.Lookup(`"c"`); ok {
		t.Fatal("pinned lookup sees a post-pin insert")
	}
	a, ok := v.Lookup(`"a"`)
	if !ok {
		t.Fatal("pinned lookup lost a pre-pin key")
	}
	if got := a.Lifespan(); !got.Equal(ls("{[0,9]}")) {
		t.Fatalf("pinned tuple reflects post-pin merge: lifespan %s", got)
	}

	// InKeyOrder maps live positions back to pinned forms: a (position
	// 0, merged since the pin) to its pinned tuple, c (position 2, born
	// after it) to nothing; repeats answer once.
	liveA, _ := r.Lookup(`"a"`)
	if !liveA.Lifespan().Equal(ls("{[0,9],[20,29]}")) {
		t.Fatalf("live merge missing: %s", liveA.Lifespan())
	}
	if got, err := v.InKeyOrder([]int32{2, 0, 0}); err != nil || len(got) != 1 || got[0] != a {
		t.Fatalf("InKeyOrder(2, 0, 0) = %v, %v; want the pinned a alone", got, err)
	}

	// Views are O(1) read-only relations over the pinned state.
	view := v.View()
	if view.Cardinality() != 2 || view.Version() != v.Version() {
		t.Fatal("view state mismatch")
	}
	if _, ok := view.Lookup(`"c"`); ok {
		t.Fatal("view sees post-pin insert")
	}
	if vt, ok := view.Lookup(`"a"`); !ok || vt != a {
		t.Fatal("view lookup must answer from the pinned prefix")
	}
	for _, err := range []error{
		view.Insert(kvTuple(s, "z", 9, 0, 9)),
		view.InsertMerging(kvTuple(s, "z", 9, 0, 9)),
		view.InsertBatch([]*Tuple{kvTuple(s, "z", 9, 0, 9)}),
	} {
		if err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("mutating a frozen view must fail, got %v", err)
		}
	}
}

// TestPinConsistentCut pins two relations while a writer batches into
// them in sequence (first A, then B with the same keys): every pin
// must observe B ⊆ A and whole batches only — the epoch-consistency
// guarantee the engine's snapshots are built on. Run with -race.
func TestPinConsistentCut(t *testing.T) {
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
			if err := a.InsertBatch(mk(sa)); err != nil {
				done <- err
				return
			}
			if err := b.InsertBatch(mk(sb)); err != nil {
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
				if ca%batchN != 0 || cb%batchN != 0 {
					t.Errorf("torn batch: |A|=%d |B|=%d", ca, cb)
					return
				}
				if cb > ca {
					t.Errorf("inconsistent cut: |B|=%d > |A|=%d", cb, ca)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
