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

// NewRelationFromTuples builds a relation over s holding exactly ts:
// the slice is adopted as-is, and its positions are sorted by key
// (sortByKey), which allocates nothing per tuple. Key uniqueness is
// checked on that order — a duplicate is two equal adjacent keys and
// fails the whole construction. The relation keeps the order, so
// rendering it neither encodes nor sorts again; its key map is built
// only when a keyed operation (Lookup, Equal, an insert, a write group)
// first needs it, and the first mutation drops the order. It is the
// materialization step of the engine's executor — operators produce
// result slices (parallel ones merge their per-partition slices in
// order) and this constructor turns the final slice into a relation.
// The relation is private to the caller (unpublished, no observers)
// exactly as NewRelation's result is; ts must not be mutated
// afterwards.
func NewRelationFromTuples(s *schema.Scheme, ts []*Tuple) (*Relation, error) {
	order, dup := sortByKey(s, ts)
	if dup >= 0 {
		return nil, fmt.Errorf("core: relation %s: duplicate key %s", s.Name, ts[dup].key(s))
	}
	return &Relation{scheme: s, id: relIDs.Add(1), tuples: ts, order: order, version: 1}, nil
}
