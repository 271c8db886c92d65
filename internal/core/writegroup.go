package core

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/value"
)

// Write-group metrics: committed/aborted group counts and the size
// distributions (staged tuples, touched relations) that tell an
// operator what the atomic commit unit actually looks like in
// production — the numbers a future WAL sizes its segments against.
var (
	mGroupCommits   = obs.Default.Counter("core.writegroup.commits")
	mGroupAborts    = obs.Default.Counter("core.writegroup.aborts")
	mGroupTuples    = obs.Default.Histogram("core.writegroup.tuples")
	mGroupRelations = obs.Default.Histogram("core.writegroup.relations")
)

// WriteGroup is a staged multi-relation mutation: any mix of inserts,
// history-merging inserts and batches, spanning any number of
// relations, published as one atomic unit. The model of the paper is a
// database of historical relations evolving *together*; per-relation
// batches alone still let a reader pin between two related
// publications and observe a cut the model never admits — relation A
// after a logical update, relation B before it. A write group closes
// that hole:
//
//	g := core.NewWriteGroup()
//	g.InsertBatch(orders, newOrders)
//	g.InsertMerging(customers, updatedHistory)
//	if err := g.Commit(); err != nil { ... } // nothing was applied
//
// Commit validates every staged mutation up front — duplicate keys
// (within the group or against existing tuples), non-mergable
// histories — and only then applies, so a failing group leaves every
// relation untouched. The apply runs under a single acquisition of the
// global publish lock with the mutexes of all touched relations held
// at once, bumps each relation's version once, and ticks the database
// epoch once. Pin takes the publish lock exclusively, so a pinned
// snapshot sees a committed group either entirely or not at all —
// across however many relations it spans.
//
// A WriteGroup is a single-goroutine staging buffer: stage and commit
// from one goroutine, and discard it after Commit (successful or not).
// Distinct groups may commit concurrently; relation mutexes are taken
// in a global creation order, so overlapping groups serialize instead
// of deadlocking.
type WriteGroup struct {
	ops   map[*Relation][]groupOp
	order []*Relation // staging order, for deterministic validation errors
}

// groupOp is one staged mutation: append t, or merge it into an
// existing history (InsertMerging semantics) when merging is set.
type groupOp struct {
	tuple   *Tuple
	merging bool
}

// NewWriteGroup returns an empty staging buffer.
func NewWriteGroup() *WriteGroup {
	return &WriteGroup{ops: make(map[*Relation][]groupOp)}
}

func (g *WriteGroup) add(r *Relation, op groupOp) {
	if _, ok := g.ops[r]; !ok {
		g.order = append(g.order, r)
	}
	g.ops[r] = append(g.ops[r], op)
}

// Insert stages the append of t into r, enforcing key uniqueness at
// commit time (against both live tuples and earlier staged ones).
func (g *WriteGroup) Insert(r *Relation, t *Tuple) {
	g.add(r, groupOp{tuple: t})
}

// InsertMerging stages t into r with history-merging semantics: at
// commit time, a live or earlier-staged tuple sharing t's key is
// merged with it (t + t'), and a contradicting history fails the whole
// group.
func (g *WriteGroup) InsertMerging(r *Relation, t *Tuple) {
	g.add(r, groupOp{tuple: t, merging: true})
}

// InsertBatch stages the append of every tuple of ts into r. Staging
// an empty batch is a no-op, mirroring Relation.InsertBatch.
func (g *WriteGroup) InsertBatch(r *Relation, ts []*Tuple) {
	for _, t := range ts {
		g.add(r, groupOp{tuple: t})
	}
}

// Len reports the number of staged mutations across all relations.
func (g *WriteGroup) Len() int {
	n := 0
	for _, ops := range g.ops {
		n += len(ops)
	}
	return n
}

// Relations reports how many distinct relations the group touches.
func (g *WriteGroup) Relations() int { return len(g.order) }

// lockRelationsOrdered is the one sanctioned way to hold more than one
// relation mutex at a time: it write-locks the given relations in
// ascending creation-id order, so two overlapping groups always contend
// on their common relations in the same order and cannot deadlock. It
// returns its own sorted copy; release with unlockRelations.
func lockRelationsOrdered(rels []*Relation) []*Relation {
	sorted := append([]*Relation(nil), rels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, r := range sorted {
		//lint:allow lockorder canonical ordered acquisition site; the sort above is the ordering argument
		r.mu.Lock()
	}
	return sorted
}

// unlockRelations releases locks taken by lockRelationsOrdered, in
// reverse acquisition order.
func unlockRelations(sorted []*Relation) {
	for i := len(sorted) - 1; i >= 0; i-- {
		sorted[i].mu.Unlock()
	}
}

// groupApply is one relation's validated outcome, computed under the
// relation's lock before anything mutates: the tuples to append (with
// their canonical keys) and the live slots to overwrite.
type groupApply struct {
	rel      *Relation
	appended []*Tuple
	keys     []value.Key
	merges   []slotMerge
}

// slotMerge is one live slot a group overwrites: the tuple at pos
// becomes its merge with the group's tuples for that key.
type slotMerge struct {
	pos   int
	tuple *Tuple
}

// Commit validates and atomically publishes the staged group. On any
// validation error — a duplicate key, a contradicting merge — no
// relation is modified and no version moves; the group may be
// corrected and committed again. On success each touched relation's
// version advances by exactly one and the database epoch ticks exactly
// once. An empty group commits trivially: no locks, no epoch tick.
func (g *WriteGroup) Commit() error {
	if len(g.order) == 0 {
		return nil
	}
	// Frozen snapshot views are rejected before any lock is taken (and
	// validation errors below follow the same nothing-applied rule).
	for _, r := range g.order {
		if r.origin != nil {
			mGroupAborts.Inc()
			return errFrozen(r)
		}
	}
	// One publish-lock acquisition covers the whole group. Writers hold
	// the shared side (distinct groups and single-relation writers still
	// run concurrently); Pin holds the exclusive side, so no snapshot
	// can be captured between two relations of this group. Lock order is
	// publish.mu → r.mu everywhere; the relation mutexes themselves are
	// taken in ascending creation order so overlapping groups serialize.
	lockPublishShared()
	rels := lockRelationsOrdered(g.order)
	unlockAll := func() {
		unlockRelations(rels)
		publish.mu.RUnlock()
	}

	// Phase 1 — validate everything and precompute every outcome, in
	// staging order so the first error reported is the first one staged.
	applies := make([]groupApply, 0, len(g.order))
	for _, r := range g.order {
		ap, err := r.validateGroupLocked(g.ops[r])
		if err != nil {
			unlockAll()
			mGroupAborts.Inc()
			return err
		}
		applies = append(applies, ap)
	}

	// Between validation and apply, the group's log gets one shot at
	// making it durable (see GroupLog). It runs with every lock still
	// held, so a failure aborts with nothing applied and no snapshot can
	// have observed the group.
	if err := g.logLocked(); err != nil {
		unlockAll()
		mGroupAborts.Inc()
		return err
	}

	// Phase 2 — apply; nothing below can fail.
	published := false
	for _, ap := range applies {
		if ap.rel.published.Load() {
			published = true
		}
		ap.rel.applyGroupLocked(ap)
	}
	unlockRelations(rels)
	if published {
		// One tick for the whole group: the epoch counts publications,
		// and the group is one. It moves under the shared side of the
		// publish lock, like every single-relation publication.
		publish.epoch.Add(1)
	}
	publish.mu.RUnlock()
	mGroupCommits.Inc()
	mGroupTuples.Observe(int64(g.Len()))
	mGroupRelations.Observe(int64(len(g.order)))
	return nil
}

// validateGroupLocked simulates the relation's staged ops under its
// held mutex without mutating anything: key-uniqueness against live
// tuples and earlier staged ones, merge compatibility, and the merged
// tuples themselves. Ops apply in staging order, so a merging insert
// may land on a tuple appended (or already merged) earlier in the same
// group.
func (r *Relation) validateGroupLocked(ops []groupOp) (groupApply, error) {
	ap := groupApply{rel: r}
	pendingIdx := make(map[value.Key]int, len(ops)) // key → index into ap.appended
	mergeIdx := make(map[int]int)                   // live slot → index into ap.merges
	byKey := r.keyIndexLocked(len(ops))
	for _, op := range ops {
		ks, err := r.keyOf(op.tuple)
		if err != nil {
			return ap, err
		}
		if j, ok := pendingIdx[ks]; ok {
			// Collides with a tuple appended earlier in this group.
			if !op.merging {
				return ap, fmt.Errorf("core: relation %s: duplicate key %s in write group", r.scheme.Name, ks)
			}
			m, err := mergeInto(r, ks, ap.appended[j], op.tuple)
			if err != nil {
				return ap, err
			}
			ap.appended[j] = m
			continue
		}
		if i, live := byKey[ks]; live {
			if !op.merging {
				return ap, fmt.Errorf("core: relation %s: duplicate key %s in write group", r.scheme.Name, ks)
			}
			cur := r.tuples[i]
			mi, merged := mergeIdx[i]
			if merged {
				cur = ap.merges[mi].tuple
			}
			m, err := mergeInto(r, ks, cur, op.tuple)
			if err != nil {
				return ap, err
			}
			if merged {
				ap.merges[mi].tuple = m
			} else {
				mergeIdx[i] = len(ap.merges)
				ap.merges = append(ap.merges, slotMerge{pos: i, tuple: m})
			}
			continue
		}
		pendingIdx[ks] = len(ap.appended)
		ap.appended = append(ap.appended, op.tuple)
		ap.keys = append(ap.keys, ks)
	}
	return ap, nil
}

// mergeInto merges t into the existing history cur, surfacing the same
// contradiction error InsertMerging reports.
func mergeInto(r *Relation, ks value.Key, cur, t *Tuple) (*Tuple, error) {
	if !cur.Mergable(t, r.scheme) {
		return nil, fmt.Errorf("core: relation %s: tuple with key %s contradicts existing history", r.scheme.Name, ks)
	}
	return cur.Merge(t)
}

// applyGroupLocked installs one relation's validated outcome under its
// held mutex: overwrite the merged slots (copy-on-write if a snapshot
// is outstanding), append the new tuples in one extension of the
// prefix, and bump the version once.
func (r *Relation) applyGroupLocked(ap groupApply) {
	if len(ap.merges) > 0 && r.shared.Load() {
		r.tuples = append([]*Tuple(nil), r.tuples...)
		r.shared.Store(false)
	}
	for _, m := range ap.merges {
		r.tuples[m.pos] = m.tuple
	}
	pos := len(r.tuples)
	r.tuples = append(r.tuples, ap.appended...)
	for i, ks := range ap.keys {
		r.byKey[ks] = pos + i // built by validateGroupLocked
	}
	r.mutatedLocked()
}
