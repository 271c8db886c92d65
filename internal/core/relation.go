package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Relation is a historical relation r on scheme R: "a finite set of
// tuples t on scheme R such that if t1 and t2 are in r, ∀s ∈ t1.l and
// ∀s' ∈ t2.l, t1.v(K)(s) ≠ t2.v(K)(s')" (Section 3) — i.e. two distinct
// tuples never share a key value at any pair of times. Because key
// attributes are constant-valued, this reduces to: distinct tuples have
// distinct constant key values.
//
// Tuples are kept in insertion order; byKey indexes the canonical key
// string for the uniqueness check and merges, and is built only when a
// keyed operation (Lookup, Equal, the set operators, an insert or a
// write group) first needs it. A relation built by
// NewRelationFromTuples also holds its tuples' positions sorted by key
// (order), or knows its tuples to be in key order already (sorted): its
// renderings print from that order. Any mutation drops both. A
// relation whose pinned versions are read in key order (RelVersion.
// KeyOrdered) caches that order for one version (keyOrder).
//
// Concurrency: mutations (Insert, InsertMerging, InsertBatch) and
// reads are synchronized by an RWMutex, so any number of readers may
// run against a relation that writers are growing. Reads hand out the
// tuple slice as an immutable snapshot: appends never touch the prefix
// a snapshot covers, and a merge that would overwrite a slot copies
// the slice first when a snapshot is outstanding (the shared flag).
// The relation's observer, once installed (Observe), is notified of
// each mutation after the write lock is released, which lets the index
// set built over it absorb changes incrementally instead of
// rebuilding. Once a relation is published (stored, observed, or
// pinned — see epoch.go), mutations additionally run under the global
// publish lock and tick the database epoch, so multi-relation readers
// can pin a transaction-consistent snapshot across relations (Pin,
// RelVersion).
type Relation struct {
	scheme *schema.Scheme

	// id is a process-unique creation ticket. WriteGroup.Commit locks
	// the mutexes of every relation in a group in ascending id order,
	// so two groups over overlapping relation sets can never deadlock
	// however their callers staged them.
	id uint64

	mu     sync.RWMutex
	tuples []*Tuple
	// byKey is nil until keyIndexLocked builds it.
	byKey map[value.Key]int
	// order lists tuple positions in key order; non-nil only in a
	// NewRelationFromTuples relation not yet mutated. sorted says the
	// tuples themselves are in key order (NewRelationKeyOrdered, or
	// NewRelationFromTuples of at most one tuple); it is dropped with
	// order.
	order  []int32
	sorted bool
	// keyOrder caches the tuples of one version in ascending key order
	// (keyOrdered). Its tag is the version and length it was built
	// for, so a mutation leaves it stale without dropping it.
	keyOrder atomic.Pointer[keyOrder]
	// version counts mutations (Insert/InsertMerging); external index
	// caches use it to detect staleness, since tuples themselves are
	// immutable once inserted.
	version uint64
	// observer, once Observe installs it, receives one Change per
	// mutation. It is set once, under mu, and read without a lock.
	observer atomic.Pointer[Observer]
	// log, when AttachLog sets it, makes the relation's write groups
	// durable before they apply (GroupLog). It is written under mu.
	log GroupLog
	// shared is set when a caller holds a snapshot of the tuples slice;
	// the next merge copies the slice instead of writing in place.
	shared atomic.Bool
	// published is set once the relation becomes shared database state
	// (registered in a store, observed, or pinned); from then on every
	// mutation runs under the global publish lock and ticks the
	// database epoch (see epoch.go). Unpublished relations — operator
	// intermediates, single-goroutine builds — skip both.
	published atomic.Bool
	// origin, when non-nil, marks this relation as a frozen read-only
	// view of a pinned version of origin: tuples is the immutable
	// pinned slice, and key lookups delegate to origin's live key map
	// bounded by the pinned prefix (keys are never deleted and
	// positions are append-stable, so the live map answers exactly for
	// every older version). Views reject mutation.
	origin *Relation
}

// ChangeKind discriminates the two mutations a relation supports.
type ChangeKind uint8

const (
	// ChangeInsert appended a new tuple at Pos.
	ChangeInsert ChangeKind = iota
	// ChangeMerge replaced the tuple at Pos (Old) with its merge with
	// an inserted tuple (New).
	ChangeMerge
	// ChangeBatch appended Batch starting at Pos under a single
	// version bump — one notification for the whole bulk load, so
	// observers can absorb it as one coalesced index merge instead of
	// len(Batch) single-tuple overlays. A batch published by a
	// WriteGroup may additionally carry Merges: slots the group
	// replaced with merged tuples, still under the same version bump.
	ChangeBatch
)

// MergeStep records one slot a coalesced batch replaced: the tuple at
// Pos was overwritten by its merge New (Old is the tuple it replaced).
type MergeStep struct {
	Pos int
	Old *Tuple
	New *Tuple
}

// Change describes one mutation of a relation. Version is the
// relation's mutation counter after the change; consecutive changes
// carry consecutive versions, so an observer can detect a missed
// notification and fall back to a full rebuild.
type Change struct {
	Kind    ChangeKind
	Pos     int         // tuple position affected (first position for batches)
	Old     *Tuple      // replaced tuple (merges only)
	New     *Tuple      // inserted or merged tuple now at Pos
	Batch   []*Tuple    // tuples appended at Pos (batches only)
	Merges  []MergeStep // slots replaced under the same bump (write groups only)
	Version uint64
}

// Observer is notified of every mutation of the relation it is
// installed on. Notifications are delivered outside the relation's
// lock (so the handler may read the relation) but possibly out of
// order under concurrent writers — handlers must use Change.Version to
// detect gaps.
type Observer interface {
	RelationChanged(r *Relation, c Change)
}

// relIDs issues the creation tickets WriteGroup.Commit orders its
// mutex acquisitions by. Frozen views (built as literals in epoch.go)
// carry id 0; they reject mutation, so they never enter a lock order.
var relIDs atomic.Uint64

// NewRelation returns an empty relation on scheme r.
func NewRelation(r *schema.Scheme) *Relation {
	return &Relation{scheme: r, id: relIDs.Add(1)}
}

// NewRelationFromTuples builds a relation over s holding exactly ts:
// the slice is adopted as-is, and its positions are sorted by key
// (sortByKey), which allocates nothing per tuple. Key uniqueness is
// checked on that order — a duplicate is two equal adjacent keys and
// fails the whole construction. The relation keeps the order, so
// rendering it neither encodes nor sorts again; its key map is built
// only when a keyed operation (Lookup, Equal, an insert, a write group)
// first needs it, and the first mutation drops the order. It is the
// materialization step of the engine's executor — operators produce
// result slices (parallel ones merge their per-chunk slices in order)
// and this constructor turns the final slice into a relation.
// The relation is private to the caller (unpublished, no observers)
// exactly as NewRelation's result is; ts must not be mutated
// afterwards.
//
// At most one tuple can hold no duplicate and is in key order, so such
// a result is built without encoding a key.
func NewRelationFromTuples(s *schema.Scheme, ts []*Tuple) (*Relation, error) {
	if len(ts) <= 1 {
		return NewRelationKeyOrdered(s, ts), nil
	}
	order, dup := sortByKey(s, ts)
	if dup >= 0 {
		return nil, fmt.Errorf("core: relation %s: duplicate key %s", s.Name, ts[dup].key(s))
	}
	return &Relation{scheme: s, id: relIDs.Add(1), tuples: ts, order: order, version: 1}, nil
}

// NewRelationKeyOrdered is NewRelationFromTuples for tuples already in
// strictly ascending key order — a key-ordered scan and what
// order-keeping kernels made of it — so no key is encoded or sorted.
// The order is the caller's guarantee and is not checked.
func NewRelationKeyOrdered(s *schema.Scheme, ts []*Tuple) *Relation {
	return &Relation{scheme: s, id: relIDs.Add(1), tuples: ts, sorted: true, version: 1}
}

// Scheme returns the relation's scheme R.
func (r *Relation) Scheme() *schema.Scheme { return r.scheme }

// Cardinality returns the number of tuples (objects).
func (r *Relation) Cardinality() int {
	if r.origin != nil {
		return len(r.tuples)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tuples)
}

// Tuples returns a snapshot of the tuples in insertion order. The
// snapshot is stable under concurrent Insert/InsertMerging; callers
// must not mutate it.
func (r *Relation) Tuples() []*Tuple {
	if r.origin != nil {
		return r.tuples // frozen views are immutable
	}
	r.mu.RLock()
	r.shared.Store(true)
	ts := r.tuples
	r.mu.RUnlock()
	return ts
}

// SnapshotVersion returns a stable tuple snapshot together with the
// version it reflects — the atomic pair index builders need.
func (r *Relation) SnapshotVersion() ([]*Tuple, uint64) {
	if r.origin != nil {
		return r.tuples, r.version
	}
	r.mu.RLock()
	r.shared.Store(true)
	ts, v := r.tuples, r.version
	r.mu.RUnlock()
	return ts, v
}

// Observe returns r's observer, installing the one mk builds if r has
// none yet. mk runs under the write lock and receives the relation
// version the observer starts from: it sees every change after that
// version and none before. Once installed, the observer is read
// without a lock, and it lives as long as r. Observing implies
// publication: an observed relation is shared state whose mutations
// must be visible to snapshot pins.
func (r *Relation) Observe(mk func(version uint64) Observer) Observer {
	if o := r.observer.Load(); o != nil {
		return *o
	}
	r.published.Store(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.observer.Load() == nil {
		o := mk(r.version)
		r.observer.Store(&o)
	}
	return *r.observer.Load()
}

// Insert adds a tuple, enforcing the key-disjointness condition.
func (r *Relation) Insert(t *Tuple) error { return r.insert(t, false) }

// insert adds t, merging it into the tuple holding its key when merging
// is set (InsertMerging).
func (r *Relation) insert(t *Tuple, merging bool) error {
	if r.origin != nil {
		return errFrozen(r)
	}
	ks, err := r.keyOf(t)
	if err != nil {
		return err
	}
	pub := r.beginPublish()
	r.mu.Lock()
	var c Change
	switch i, dup := r.keyIndexLocked(1)[ks]; {
	case dup && merging:
		c, err = r.mergeLocked(i, ks, t)
	case dup:
		err = fmt.Errorf("core: relation %s: duplicate key %s", r.scheme.Name, ks)
	default:
		c = r.insertLocked(ks, t)
	}
	obs := r.observer.Load()
	r.mu.Unlock()
	r.endPublish(pub, err == nil)
	if err != nil {
		return err
	}
	notify(obs, r, c)
	return nil
}

// InsertBatch adds many tuples as one atomic publication: the whole
// batch is validated first (a duplicate key — within the batch or
// against existing tuples — fails the call with nothing applied),
// then appended under a single version bump and a single epoch tick,
// and the observer receives one coalesced ChangeBatch notification. Bulk
// loading through it costs one index merge instead of len(ts)
// single-tuple overlays, and readers pinning snapshots see the batch
// entirely or not at all.
func (r *Relation) InsertBatch(ts []*Tuple) error {
	if r.origin != nil {
		return errFrozen(r)
	}
	if len(ts) == 0 {
		return nil
	}
	kss := make([]value.Key, len(ts))
	for i, t := range ts {
		var err error
		if kss[i], err = r.keyOf(t); err != nil {
			return err
		}
	}
	pub := r.beginPublish()
	r.mu.Lock()
	byKey := r.keyIndexLocked(len(ts))
	pos := len(r.tuples)
	// One pass checks and inserts each key; a duplicate — against a
	// live tuple or one earlier in the batch — takes back the keys this
	// batch added before failing the call.
	for i, ks := range kss {
		if _, dup := byKey[ks]; dup {
			for _, added := range kss[:i] {
				delete(byKey, added)
			}
			r.mu.Unlock()
			r.endPublish(pub, false)
			return fmt.Errorf("core: relation %s: duplicate key %s in batch", r.scheme.Name, ks)
		}
		byKey[ks] = pos + i
	}
	// One append keeps the prefix property: outstanding snapshots cover
	// only [0,pos).
	r.tuples = append(r.tuples, ts...)
	r.mutatedLocked()
	c := Change{Kind: ChangeBatch, Pos: pos, Batch: ts, Version: r.version}
	obs := r.observer.Load()
	r.mu.Unlock()
	r.endPublish(pub, true)
	notify(obs, r, c)
	return nil
}

// keyOf returns t's key in r. A relation holds only tuples laid out in
// its own attribute order, so a tuple whose scheme orders the
// attributes differently is refused.
func (r *Relation) keyOf(t *Tuple) (value.Key, error) {
	if !t.s.SameOrder(r.scheme) {
		return value.Key{}, fmt.Errorf("core: relation %s: tuple on %s is not laid out in its attribute order", r.scheme.Name, t.s.Name)
	}
	return t.key(r.scheme), nil
}

// errFrozen reports a mutation attempt on a pinned-snapshot view.
func errFrozen(r *Relation) error {
	return fmt.Errorf("core: relation %s: frozen snapshot view is read-only", r.scheme.Name)
}

// insertLocked appends t, whose key ks no tuple holds, under the write
// lock and returns the Change to deliver after release.
func (r *Relation) insertLocked(ks value.Key, t *Tuple) Change {
	pos := len(r.tuples)
	r.byKey[ks] = pos
	// Appending is snapshot-safe without copying: outstanding snapshots
	// cover only the prefix [0,pos).
	r.tuples = append(r.tuples, t)
	r.mutatedLocked()
	return Change{Kind: ChangeInsert, Pos: pos, New: t, Version: r.version}
}

// mutatedLocked records a mutation under the write lock: the version
// moves and the stored key order, if any, no longer describes the
// tuples.
func (r *Relation) mutatedLocked() {
	r.version++
	r.order, r.sorted = nil, false
}

// keyIndexLocked returns byKey, building it from the tuples if this is
// the relation's first keyed operation, with room for extra more keys.
// The caller holds the write lock.
func (r *Relation) keyIndexLocked(extra int) map[value.Key]int {
	if r.byKey == nil {
		r.byKey = make(map[value.Key]int, len(r.tuples)+extra)
		for i, t := range r.tuples {
			r.byKey[t.key(r.scheme)] = i
		}
	}
	return r.byKey
}

// rLockKeyed read-locks r with byKey built. byKey is never cleared once
// built, so a build under the write lock followed by a fresh read lock
// leaves it in place.
func (r *Relation) rLockKeyed() {
	r.mu.RLock()
	if r.byKey != nil {
		return
	}
	r.mu.RUnlock()
	r.mu.Lock()
	r.keyIndexLocked(0)
	r.mu.Unlock()
	r.mu.RLock()
}

// notify delivers c to the observer installed at mutation time, if any.
func notify(obs *Observer, r *Relation, c Change) {
	if obs != nil {
		(*obs).RelationChanged(r, c)
	}
}

// Version returns the relation's mutation counter. Index structures
// built over the relation record it and catch up (or rebuild) when it
// moves.
func (r *Relation) Version() uint64 {
	if r.origin != nil {
		return r.version
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// MustInsert is Insert that panics on error; for tests and examples.
func (r *Relation) MustInsert(t *Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// InsertMerging adds a tuple; if a tuple with the same key exists and is
// mergable, the two are merged (t + t'), mirroring history-building
// updates. If the existing tuple contradicts the new one, an error is
// returned.
func (r *Relation) InsertMerging(t *Tuple) error { return r.insert(t, true) }

// mergeLocked replaces the tuple at i, which holds t's key ks, with its
// merge with t under the write lock, and returns the Change to deliver
// after release.
func (r *Relation) mergeLocked(i int, ks value.Key, t *Tuple) (Change, error) {
	old := r.tuples[i]
	m, err := mergeInto(r, ks, old, t)
	if err != nil {
		return Change{}, err
	}
	// A merge overwrites a slot an outstanding snapshot may cover; copy
	// the slice first so snapshots stay immutable. The flag clears after
	// the copy — merge-heavy construction of a private relation (no
	// snapshots taken) never pays for copies.
	if r.shared.Load() {
		r.tuples = append([]*Tuple(nil), r.tuples...)
		r.shared.Store(false)
	}
	r.tuples[i] = m
	r.mutatedLocked()
	return Change{Kind: ChangeMerge, Pos: i, Old: old, New: m, Version: r.version}, nil
}

// Lookup returns the tuple whose key matches the given key values, one
// per key attribute in scheme order, each in its value's canonical
// rendering (value.Value.String). Multi-attribute keys are combined
// with the same collision-free encoding the relation indexes by, so a
// key value containing the separator cannot alias a different key.
func (r *Relation) Lookup(keyVals ...string) (*Tuple, bool) {
	return r.lookupKS(value.EncodeKey(keyVals))
}

// lookupTuple finds the relation's tuple sharing o's key values; o
// must be laid out in r's attribute order.
func (r *Relation) lookupTuple(o *Tuple) (*Tuple, bool) {
	return r.lookupKS(o.key(r.scheme))
}

// lookupKS resolves a canonical key to the tuple holding it —
// in the pinned prefix for frozen views, in live state otherwise. The
// live path holds the read lock across map lookup and tuple fetch: a
// concurrent merge may overwrite the slot in place.
func (r *Relation) lookupKS(ks value.Key) (*Tuple, bool) {
	if r.origin != nil {
		i, ok := r.keyPos(ks)
		if !ok {
			return nil, false
		}
		return r.tuples[i], true // pinned slice, immutable
	}
	r.rLockKeyed()
	defer r.mu.RUnlock()
	i, ok := r.byKey[ks]
	if !ok {
		return nil, false
	}
	return r.tuples[i], true
}

// keyPos resolves a canonical key to its tuple position. Frozen
// views delegate to their origin's live key map and bound the answer
// by the pinned prefix: keys are never deleted and a merge keeps its
// slot, so positions are exact for every older version.
func (r *Relation) keyPos(ks value.Key) (int, bool) {
	if r.origin != nil {
		i, ok := r.origin.keyPos(ks)
		if !ok || i >= len(r.tuples) {
			return 0, false
		}
		return i, true
	}
	r.rLockKeyed()
	defer r.mu.RUnlock()
	i, ok := r.byKey[ks]
	return i, ok
}

// Lifespan computes LS(r) = t1.l ∪ t2.l ∪ ... ∪ tn.l, "the lifespan of
// relation r" (Section 3); see LifespanOf. WHEN is defined directly
// from this.
func (r *Relation) Lifespan() lifespan.Lifespan { return LifespanOf(r.Tuples()) }

// LifespanOf is the union of the lifespans of ts. Every tuple's
// intervals are gathered once and canonicalized once, rather than
// folded through n pairwise unions that each re-sort the whole
// accumulator; no relation, key or order is needed, so an executor can
// take the WHEN of a result batch directly.
func LifespanOf(ts []*Tuple) lifespan.Lifespan {
	n := 0
	for _, t := range ts {
		n += t.l.NumIntervals()
	}
	ivs := make([]chronon.Interval, 0, n)
	for _, t := range ts {
		for i := range t.l.NumIntervals() {
			ivs = append(ivs, t.l.IntervalAt(i))
		}
	}
	return lifespan.New(ivs...)
}

// Equal reports set equality of two relations: same scheme attributes and
// an equal tuple for every key, independent of insertion order and of
// the order each scheme lists its attributes in.
func (r *Relation) Equal(o *Relation) bool {
	if !r.scheme.SameAttrs(o.scheme) {
		return false
	}
	o, err := relay(o, r.scheme)
	ts, os := r.Tuples(), o.Tuples()
	if err != nil || len(ts) != len(os) {
		return false
	}
	for _, t := range ts {
		u, ok := o.lookupTuple(t)
		if !ok || !t.Equal(u) {
			return false
		}
	}
	return true
}

// String renders the relation; see AppendForm.
func (r *Relation) String() string { return string(r.AppendForm(nil, value.Text)) }

// AppendTo appends the relation's String rendering to dst.
func (r *Relation) AppendTo(dst []byte) []byte { return r.AppendForm(dst, value.Text) }

// AppendForm appends the relation's rendering to dst in form f: the
// scheme header, then one line per tuple with its values in scheme
// order. Tuples appear in canonical key order — ascending by key, the
// escaped encoding relations index by, compared bytewise — so a
// rendering does not depend on insertion order. A NewRelationFromTuples
// relation prints from the order it stored, a frozen view from its
// version's cached key order (keyOrdered); any other is sorted by
// sortByKey.
func (r *Relation) AppendForm(dst []byte, f value.Form) []byte {
	var ts []*Tuple
	var order []int32
	sorted := false
	if r.origin != nil {
		// Frozen views are immutable; a duplicate key (never admitted)
		// falls through to the sort below.
		ts = r.tuples
		if ko, err := r.origin.keyOrdered(r.version, r.tuples); err == nil {
			ts, sorted = ko.ts, true
		}
	} else {
		// A snapshot like Tuples(), read with the order it describes.
		r.mu.RLock()
		r.shared.Store(true)
		ts, order, sorted = r.tuples, r.order, r.sorted
		r.mu.RUnlock()
	}
	dst = r.scheme.AppendForm(dst, f)
	if sorted {
		for _, t := range ts {
			dst = t.appendTo(append(f.Newline(dst), "  "...), nil, f)
		}
		return dst
	}
	if order == nil {
		order, _ = sortByKey(r.scheme, ts)
	}
	for _, i := range order {
		dst = ts[i].appendTo(append(f.Newline(dst), "  "...), nil, f)
	}
	return dst
}

// keyOrder is a relation's tuples at one version in ascending key
// order, tagged with the version and length it describes. rank is the
// inverse: rank[pos] is the key-order index of the tuple at position
// pos, so positions an index probe finds sort into key order as plain
// integers (RelVersion.InKeyOrder).
type keyOrder struct {
	version uint64
	n       int
	ts      []*Tuple
	rank    []int32
}

// mKeyOrderBuilds counts the key orders keyOrdered builds: one per
// relation version read in key order.
var mKeyOrderBuilds = obs.Default.Counter("core.keyorder.builds")

// keyOrdered returns the key order of ts, r's tuples at version ver:
// from the cache when it was built for (ver, len(ts)), else sorted
// once and cached. Builders racing on one version each sort and store
// an equal order; an older version never replaces a newer one. A
// duplicate key, which the relation's inserts refuse, is reported as
// an error.
func (r *Relation) keyOrdered(ver uint64, ts []*Tuple) (*keyOrder, error) {
	old := r.keyOrder.Load()
	if old != nil && old.version == ver && old.n == len(ts) {
		return old, nil
	}
	order, dup := sortByKey(r.scheme, ts)
	if dup >= 0 {
		return nil, fmt.Errorf("core: relation %s: duplicate key %s", r.scheme.Name, ts[dup].key(r.scheme))
	}
	ko := &keyOrder{version: ver, n: len(ts), ts: make([]*Tuple, len(order)), rank: make([]int32, len(order))}
	for i, p := range order {
		ko.ts[i] = ts[p]
		ko.rank[p] = int32(i)
	}
	mKeyOrderBuilds.Inc()
	if old == nil || old.version <= ver {
		r.keyOrder.CompareAndSwap(old, ko)
	}
	return ko, nil
}

// sortByKey returns the positions of ts in ascending key order and the
// position of a tuple whose key another tuple shares (-1 when every key
// is distinct); see value.SortByKey. It is the one encode-and-sort
// NewRelationFromTuples, key-ordered versions and rendering use.
func sortByKey(s *schema.Scheme, ts []*Tuple) (order []int32, dup int) {
	return value.SortByKey(len(ts), func(dst []byte, i int) []byte { return ts[i].appendKey(dst, s) })
}

// checkInvariants verifies the paper's structural conditions for every
// tuple. Operators call it in tests (via the invariant-checking helpers)
// rather than on every construction for performance.
func (r *Relation) checkInvariants() error {
	ts := r.Tuples()
	seen := make(map[value.Key]bool, len(ts))
	for _, t := range ts {
		ks := t.key(r.scheme)
		if seen[ks] {
			return fmt.Errorf("core: relation %s: duplicate key %s", r.scheme.Name, ks)
		}
		seen[ks] = true
		if t.l.IsEmpty() {
			return fmt.Errorf("core: relation %s: tuple %s has empty lifespan", r.scheme.Name, ks)
		}
		for i, a := range r.scheme.Attrs {
			f := t.v[i]
			vls := t.VLS(r.scheme, a.Name)
			if !f.DomainSubsetOf(vls) {
				return fmt.Errorf("core: relation %s: tuple %s: %s defined outside vls", r.scheme.Name, ks, a.Name)
			}
			if r.scheme.IsKey(a.Name) {
				if !f.IsConstant() || !f.DomainEqual(vls) {
					return fmt.Errorf("core: relation %s: tuple %s: key %s not constant over vls", r.scheme.Name, ks, a.Name)
				}
			}
		}
	}
	return nil
}
