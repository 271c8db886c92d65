package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

// This file is the publication layer that gives multi-relation readers
// a transaction-consistent view of the database. The algebra of the
// paper (and every operator in this package) is defined over a single
// consistent database state; per-relation locks alone cannot provide
// that to a query touching several relations while writers run — the
// query could observe relation A before a writer's batch and relation
// B after it. The fix is epoch-based snapshot isolation:
//
//   - Every mutation of a *published* relation (one that is reachable
//     from a store, observed by its index set, or previously pinned)
//     runs under a process-wide publish lock in shared mode and ticks a
//     monotonically increasing database epoch. Writers to distinct
//     relations still run concurrently; the relation's own mutex
//     serializes same-relation writers as before.
//   - Pin captures, under the publish lock in exclusive mode, one
//     immutable version of each requested relation plus the epoch —
//     a consistent cut: every publication is entirely before or
//     entirely after the pin. The critical section is O(#relations)
//     pointer copies; execution afterwards reads the pinned tuple
//     slices with no locks at all (appends never touch a snapshot's
//     prefix, merges copy-on-write).
//   - Relations that were never published — operator intermediates,
//     single-goroutine builds — skip the publish lock entirely, so
//     result construction pays nothing for the isolation of base data.
//
// The polarity (writers shared, pins exclusive) is what makes
// PinAtomic deadlock-free: a writer blocked on the publish lock holds
// no other lock, so a pinner may freely read state (a store's WAL
// position) while it holds publishes out.

// publish is the process-wide publication lock; epoch counts
// publications. The epoch only moves under publish.mu (shared side),
// so a Pin holding the exclusive side reads a stable value.
var publish struct {
	mu    sync.RWMutex
	epoch atomic.Uint64
}

// Publish-lock contention metrics. Wait time is measured only on the
// contended path: the Try* fast path costs the same compare-and-swap
// the plain acquisition would, so uncontended pins and publications
// pay no clock read at all, while every acquisition that actually
// blocked records how long it waited. The epoch itself is exported as
// a snapshot-time gauge — zero hot-path cost.
var (
	mPinContended   = obs.Default.Counter("core.publish.pin_contended")
	mPinWait        = obs.Default.Histogram("core.publish.pin_wait_ns")
	mWriteContended = obs.Default.Counter("core.publish.write_contended")
	mWriteWait      = obs.Default.Histogram("core.publish.write_wait_ns")
)

func init() {
	obs.Default.GaugeFunc("core.epoch", func() int64 { return int64(Epoch()) })
}

// lockPublishExclusive acquires the exclusive (pin) side of the
// publish lock, recording wait time when the acquisition blocked.
func lockPublishExclusive() {
	if publish.mu.TryLock() {
		return
	}
	t0 := time.Now()
	publish.mu.Lock()
	mPinContended.Inc()
	mPinWait.ObserveSince(t0)
}

// lockPublishShared acquires the shared (writer) side of the publish
// lock, recording wait time when the acquisition blocked.
func lockPublishShared() {
	if publish.mu.TryRLock() {
		return
	}
	t0 := time.Now()
	publish.mu.RLock()
	mWriteContended.Inc()
	mWriteWait.ObserveSince(t0)
}

// Epoch returns the current database epoch: the number of publications
// (inserts, merges, batches) applied to published relations so far.
func Epoch() uint64 { return publish.epoch.Load() }

// RelVersion is one pinned, immutable version of a relation: the tuple
// prefix visible at the pin plus the mutation counter it reflects.
// All methods are lock-free over the pinned slice; key lookups consult
// the live relation's canonical-key map bounded by the pinned prefix
// (keys are never deleted and tuple positions are append-stable, so
// the live map answers exactly for every older version).
type RelVersion struct {
	rel     *Relation
	tuples  []*Tuple
	version uint64
}

// Rel returns the live relation this version was pinned from.
func (v RelVersion) Rel() *Relation { return v.rel }

// Tuples returns the pinned tuple slice; callers must not mutate it.
func (v RelVersion) Tuples() []*Tuple { return v.tuples }

// Version returns the relation mutation counter the version reflects.
func (v RelVersion) Version() uint64 { return v.version }

// KeyOrdered returns the pinned tuples in ascending key order — the
// order every rendering prints — built on first use for each version
// and cached on the relation, so scans of an unchanged relation sort
// once. Tuples and Lookup keep insertion order and positions;
// callers must not mutate the slice.
func (v RelVersion) KeyOrdered() ([]*Tuple, error) {
	ko, err := v.rel.keyOrdered(v.version, v.tuples)
	if err != nil {
		return nil, err
	}
	return ko.ts, nil
}

// InKeyOrder returns the pinned tuples at positions pos, in ascending
// key order and each once. pos may name positions of the live relation
// past the pin, which are dropped: positions never move, so one inside
// the pinned prefix is the pinned tuple there. The order is one integer
// sort of the positions' key ranks, cached with the version's key order
// (KeyOrdered). pos is overwritten.
func (v RelVersion) InKeyOrder(pos []int32) ([]*Tuple, error) {
	ko, err := v.rel.keyOrdered(v.version, v.tuples)
	if err != nil {
		return nil, err
	}
	rs := pos[:0]
	for _, p := range pos {
		if int(p) < len(v.tuples) {
			rs = append(rs, ko.rank[p])
		}
	}
	slices.Sort(rs)
	rs = slices.Compact(rs)
	out := make([]*Tuple, len(rs))
	for i, r := range rs {
		out[i] = ko.ts[r]
	}
	return out, nil
}

// Cardinality returns the number of tuples in the pinned version.
func (v RelVersion) Cardinality() int { return len(v.tuples) }

// Lookup resolves a key (one value per key attribute in scheme order,
// canonical rendering) within the pinned version.
func (v RelVersion) Lookup(keyVals ...string) (*Tuple, bool) {
	return v.LookupKey(value.EncodeKey(keyVals))
}

// LookupKey resolves an encoded key (value.EncodeKey or value.KeyOf of
// the key values) within the pinned version.
func (v RelVersion) LookupKey(ks value.Key) (*Tuple, bool) {
	i, ok := v.rel.keyPos(ks)
	if !ok || i >= len(v.tuples) {
		return nil, false
	}
	return v.tuples[i], true
}

// View wraps the pinned version as a read-only Relation, so the naive
// algebra operators (which take *Relation operands) can run against a
// consistent snapshot. Views share the pinned slice — construction is
// O(1) — and reject mutation; key lookups delegate through the origin
// relation bounded by the pinned prefix.
func (v RelVersion) View() *Relation {
	return &Relation{scheme: v.rel.scheme, tuples: v.tuples, version: v.version, origin: v.rel}
}

// Pin captures one consistent version of each relation plus the
// database epoch: publications are excluded for the duration of the
// capture, so the result is a cut of the global mutation order — no
// publication is half-visible, and for any writer that batches into
// several relations in sequence, the cut respects that sequence.
func Pin(rels ...*Relation) (epoch uint64, vers []RelVersion) {
	lockPublishExclusive()
	defer publish.mu.Unlock()
	return pinLocked(rels)
}

// PinAtomic runs prepare while publications are excluded and then pins
// the relations it returns, all under one critical section. Its caller,
// storage's checkpoint cut (Store.pinAll), reads the WAL sequence
// number inside the section, so the LSN matches the pinned tuple state
// exactly: blocked writers hold no relation locks. A prepare error
// aborts the pin and is returned as-is.
func PinAtomic(prepare func() ([]*Relation, error)) (epoch uint64, vers []RelVersion, err error) {
	lockPublishExclusive()
	defer publish.mu.Unlock()
	rels, err := prepare()
	if err != nil {
		return 0, nil, err
	}
	epoch, vers = pinLocked(rels)
	return epoch, vers, nil
}

// pinLocked captures the versions under the held publish lock. Each
// relation's own mutex is still taken in read mode: a relation being
// mutated right now on the unpublished fast path (its first pin is
// racing its last private write) must not be captured mid-append.
func pinLocked(rels []*Relation) (uint64, []RelVersion) {
	vers := make([]RelVersion, len(rels))
	for i, r := range rels {
		r.published.Store(true)
		r.mu.RLock()
		r.shared.Store(true)
		vers[i] = RelVersion{rel: r, tuples: r.tuples, version: r.version}
		r.mu.RUnlock()
	}
	return publish.epoch.Load(), vers
}

// MarkPublished flags r as shared database state: from now on every
// mutation publishes under the global lock and ticks the epoch.
// Stores call it when a relation is registered; Observe and Pin imply
// it. Relations never marked (operator intermediates) keep the cheap
// single-mutex write path.
func (r *Relation) MarkPublished() { r.published.Store(true) }

// beginPublish enters the publication critical section when r is
// published; the returned flag is handed back to endPublish. Writers
// hold the shared side, so distinct relations publish concurrently;
// the relation mutex (acquired after, never before) serializes
// same-relation writers. Lock order publish.mu → r.mu is what every
// pinner relies on.
func (r *Relation) beginPublish() bool {
	if !r.published.Load() {
		return false
	}
	lockPublishShared()
	return true
}

// endPublish leaves the critical section, ticking the epoch when a
// mutation was actually published.
func (r *Relation) endPublish(locked, mutated bool) {
	if !locked {
		return
	}
	if mutated {
		publish.epoch.Add(1)
	}
	publish.mu.RUnlock()
}
