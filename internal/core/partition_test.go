package core

import (
	"fmt"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// partitionFixture builds n EMP tuples whose lifespans march forward in
// time: tuple i lives on [i, i+4] (clamped to the scheme period), so
// chunk bounds are predictable and a narrow window prunes most chunks.
func partitionFixture(t testing.TB, n int) []*Tuple {
	t.Helper()
	s := empScheme()
	ts := make([]*Tuple, n)
	for i := range ts {
		lo := chronon.Time(i % 90)
		hi := lo + 4
		ts[i] = NewTupleBuilder(s, lifespan.Interval(lo, hi)).
			Key("NAME", value.String_(fmt.Sprintf("emp%04d", i))).
			Set("SAL", lo, hi, value.Int(int64(1000*i))).
			Set("DEPT", lo, hi, value.String_("Toys")).
			MustBuild()
	}
	return ts
}

func TestPartitionSliceShape(t *testing.T) {
	ts := partitionFixture(t, 25)
	parts := PartitionSlice(ts, 10)
	if len(parts) != 3 {
		t.Fatalf("25 tuples / chunk 10 = %d partitions, want 3", len(parts))
	}
	// Chunks are contiguous, order-preserving and cover the slice.
	pos := 0
	var flat []*Tuple
	for i, p := range parts {
		if p.Pos != pos {
			t.Fatalf("partition %d starts at %d, want %d", i, p.Pos, pos)
		}
		pos += len(p.Tuples)
		flat = append(flat, p.Tuples...)
	}
	if len(flat) != len(ts) {
		t.Fatalf("partitions cover %d tuples, want %d", len(flat), len(ts))
	}
	for i := range ts {
		if flat[i] != ts[i] {
			t.Fatalf("tuple %d reordered by partitioning", i)
		}
	}
	if got := len(parts[2].Tuples); got != 5 {
		t.Fatalf("final chunk holds %d tuples, want 5", got)
	}
	// Bounds are the min/max chronon of each chunk's lifespans: chunk 0
	// holds tuples living [0,4]..[9,13].
	if b := parts[0].Bounds; b.Lo != 0 || b.Hi != 13 {
		t.Fatalf("chunk 0 bounds = %v, want [0,13]", b)
	}

	if PartitionSlice(nil, 10) != nil {
		t.Fatal("empty input must produce no partitions")
	}
	// A non-positive chunk clamps to 1: one partition per tuple.
	if got := len(PartitionSlice(ts, 0)); got != len(ts) {
		t.Fatalf("chunk 0 produced %d partitions, want %d", got, len(ts))
	}
}

// TestPartitionSliceDegreeIndependence pins the determinism contract:
// chunk boundaries depend only on input length and chunk size, so the
// same slice partitions identically however many workers will consume
// it — re-partitioning is byte-for-byte stable.
func TestPartitionSliceDegreeIndependence(t *testing.T) {
	ts := partitionFixture(t, 103)
	a := PartitionSlice(ts, 16)
	b := PartitionSlice(ts, 16)
	if len(a) != len(b) {
		t.Fatalf("partition counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || len(a[i].Tuples) != len(b[i].Tuples) || a[i].Bounds != b[i].Bounds {
			t.Fatalf("partition %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPartitionOverlaps(t *testing.T) {
	ts := partitionFixture(t, 10) // lifespans [0,4]..[9,13]
	p := PartitionSlice(ts, 10)[0]
	if p.Bounds.Lo != 0 || p.Bounds.Hi != 13 {
		t.Fatalf("bounds = %v, want [0,13]", p.Bounds)
	}
	if p.Overlaps(ls("{[20,30]}")) {
		t.Fatal("window beyond the bounds must not overlap")
	}
	if !p.Overlaps(ls("{[13,40]}")) {
		t.Fatal("window touching the bound's edge must overlap")
	}
	if p.Overlaps(ls("{}")) {
		t.Fatal("empty window overlaps nothing")
	}
	if (Partition{Bounds: chronon.EmptyInterval()}).Overlaps(ls("{[0,99]}")) {
		t.Fatal("empty partition overlaps nothing")
	}

	// Conservative by construction: a rehire gap inside the bounding
	// interval still reports overlap — false promises no survivor, true
	// promises nothing.
	s := empScheme()
	gap := NewTupleBuilder(s, ls("{[0,3],[8,14]}")).
		Key("NAME", value.String_("gapped")).
		Set("SAL", 0, 3, value.Int(1)).
		Set("SAL", 8, 14, value.Int(2)).
		Set("DEPT", 0, 3, value.String_("Toys")).
		Set("DEPT", 8, 14, value.String_("Toys")).
		MustBuild()
	gp := PartitionSlice([]*Tuple{gap}, 1)[0]
	if !gp.Overlaps(ls("{[4,7]}")) {
		t.Fatal("bounding-interval test is conservative: the gap window must still report overlap")
	}
}

func TestNewRelationFromTuples(t *testing.T) {
	s := empScheme()
	ts := partitionFixture(t, 30)
	r, err := NewRelationFromTuples(s, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != len(ts) {
		t.Fatalf("cardinality %d, want %d", r.Cardinality(), len(ts))
	}
	// Equal to the incremental construction, key map included.
	inc := NewRelation(s)
	for _, tp := range ts {
		inc.MustInsert(tp)
	}
	if !r.Equal(inc) {
		t.Fatal("coalesced construction differs from incremental inserts")
	}
	if _, ok := r.lookupTuple(ts[17]); !ok {
		t.Fatal("key map misses a constructed tuple")
	}
	if err := r.checkInvariants(); err != nil {
		t.Fatalf("coalesced relation violates invariants: %v", err)
	}

	// A duplicate key fails the whole construction.
	if _, err := NewRelationFromTuples(s, append(ts[:5:5], ts[4])); err == nil {
		t.Fatal("duplicate key must fail the coalesced construction")
	}
}
