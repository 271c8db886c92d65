package core

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
)

// This file is the partitioning layer over pinned snapshots: it splits
// an immutable tuple slice — a RelVersion's pinned prefix, or a
// plan-time candidate set — into contiguous position chunks
// (PartitionSlice) a parallel executor can hand to workers, each
// annotated with the bounding interval of its tuples' lifespans.
// Chunks preserve the slice's order, so a merge that concatenates
// per-chunk results in chunk order reproduces the sequential output
// exactly — the determinism the engine's ordered merge relies on. The
// bounds support lifespan-range pruning: a chunk whose bounding
// interval misses a query window holds no tuple alive in it. Only the
// partition descriptors are allocated; the tuples themselves are
// shared, never copied.

// Partition is one contiguous chunk of a partitioned tuple slice.
type Partition struct {
	// Tuples is the chunk: a sub-slice of the partitioned snapshot,
	// sharing its backing array.
	Tuples []*Tuple
	// Pos is the chunk's starting offset in the partitioned slice.
	Pos int
	// Bounds is the bounding interval of the chunk's tuple lifespans —
	// the smallest interval containing every chronon any tuple covers.
	// Empty (Lo > Hi) only when the chunk is empty.
	Bounds chronon.Interval
}

// Overlaps reports whether any tuple of the partition could be alive
// during L: false guarantees every tuple's lifespan misses L entirely,
// so a TIME-SLICE or windowed selection may skip the chunk. The test
// compares L's intervals against the chunk's bounding interval, so it
// is conservative — true does not promise a surviving tuple.
func (p Partition) Overlaps(L lifespan.Lifespan) bool {
	if p.Bounds.IsEmpty() {
		return false
	}
	for i := range L.NumIntervals() {
		if L.IntervalAt(i).Overlaps(p.Bounds) {
			return true
		}
	}
	return false
}

// PartitionSlice splits ts into contiguous chunks of at most chunk
// tuples (the final chunk may be shorter), computing each chunk's
// lifespan bounds. Chunk boundaries depend only on len(ts) and chunk —
// not on how many workers will consume them — so a fixed chunk size
// yields identical partitions at every degree of parallelism.
func PartitionSlice(ts []*Tuple, chunk int) []Partition {
	if chunk < 1 {
		chunk = 1
	}
	if len(ts) == 0 {
		return nil
	}
	parts := make([]Partition, 0, (len(ts)+chunk-1)/chunk)
	for pos := 0; pos < len(ts); pos += chunk {
		end := pos + chunk
		if end > len(ts) {
			end = len(ts)
		}
		p := Partition{Tuples: ts[pos:end], Pos: pos, Bounds: chronon.EmptyInterval()}
		for _, t := range p.Tuples {
			span := t.l.Span()
			if span.IsEmpty() {
				continue
			}
			if p.Bounds.IsEmpty() {
				p.Bounds = span
				continue
			}
			if span.Lo < p.Bounds.Lo {
				p.Bounds.Lo = span.Lo
			}
			if span.Hi > p.Bounds.Hi {
				p.Bounds.Hi = span.Hi
			}
		}
		parts = append(parts, p)
	}
	return parts
}

// NewRelationFromTuples builds a relation over s holding exactly ts, in
// one coalesced pass: the tuple slice is adopted as-is and the key map
// is allocated once at its final size, instead of the per-tuple
// Insert's repeated map growth and per-call lock round. It is the
// materialization step of the engine's executor — operators produce
// result slices (parallel ones merge their per-partition slices in
// order) and this constructor turns the final slice into a relation —
// and equally a fast path for any single-writer bulk construction. The key
// uniqueness invariant is still enforced; a duplicate fails the whole
// construction. The relation is private to the caller (unpublished, no
// observers) exactly as NewRelation's result is; ts must not be
// mutated afterwards.
func NewRelationFromTuples(s *schema.Scheme, ts []*Tuple) (*Relation, error) {
	r := &Relation{scheme: s, id: relIDs.Add(1)}
	r.byKey = make(map[string]int, len(ts))
	for i, t := range ts {
		ks := t.keyString(s)
		if _, dup := r.byKey[ks]; dup {
			return nil, fmt.Errorf("core: relation %s: duplicate key %s", s.Name, ks)
		}
		r.byKey[ks] = i
	}
	r.tuples = ts
	r.version = 1
	return r, nil
}
