//go:build !race

// The race detector instruments every allocation and keeps shadow
// memory beside the heap, so live-heap figures under -race measure the
// detector: this file builds only without it.

package storage

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestTupleFootprint bounds the live heap a stored tuple costs. It
// decodes 20 000 tuples of a two-attribute shape — a distinct string
// key K and an integer step V over a one-interval lifespan — from a
// snapshot, the way a store is loaded, and requires at most 320 bytes
// live per tuple after a collection: the tuple header, its value slice,
// the functions' steps, the key string and the relation's slot and key
// map entry. The encoded blob stays live through both heap samples, so
// their difference is the decoded relation alone: about 300 bytes per
// tuple on linux/amd64 with Go 1.24. A tuple holding its values in a
// map per tuple measures about 555 bytes here.
func TestTupleFootprint(t *testing.T) {
	const n, maxPerTuple = 20000, 320
	full := lifespan.Interval(0, 999)
	s := schema.MustNew("AB", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	src := core.NewRelation(s)
	ts := make([]*core.Tuple, n)
	for i := range ts {
		ts[i] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("K", value.String_(fmt.Sprintf("p%06d", i))).
			Set("V", 0, 9, value.Int(int64(i%10))).
			MustBuild()
	}
	if err := src.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	src, ts = nil, nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	if r.Cardinality() != n {
		t.Fatalf("decoded %d tuples, want %d", r.Cardinality(), n)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B live per tuple", per)
	if per > maxPerTuple {
		t.Errorf("%d B live per decoded tuple, want at most %d", per, maxPerTuple)
	}
	runtime.KeepAlive(r)
}

// TestDecodeStringAllocs bounds what a decoded string step costs in
// allocations. A relation whose values are mostly strings — 16 tuples,
// each a string key and a 64-step string attribute — is decoded with
// DecodeBytes; each string must cost about one allocation, its own
// bytes, with the rest of the decode spread over the steps (about 1.05
// in all). Reading each string into a fresh slice and then copying it
// into a string costs one more per string; rebuilding each function
// step by step through overlap layering costs about six more.
func TestDecodeStringAllocs(t *testing.T) {
	const tuples, steps, maxPerString = 16, 64, 1.5
	full := lifespan.Interval(0, 999)
	s := schema.MustNew("NOTES", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "NOTE", Domain: value.Strings, Lifespan: full, Interp: "step"},
	)
	src := core.NewRelation(s)
	for i := 0; i < tuples; i++ {
		b := core.NewTupleBuilder(s, lifespan.Interval(0, 10*steps-1)).
			Key("K", value.String_(fmt.Sprintf("key-%02d", i)))
		for j := 0; j < steps; j++ {
			lo := int64(10 * j)
			b.Set("NOTE", chronon.Time(lo), chronon.Time(lo+9), value.String_(fmt.Sprintf("note %d of tuple %d", j, i)))
		}
		src.MustInsert(b.MustBuild())
	}
	blob, err := EncodeBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBytes(blob); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / (tuples * (steps + 1))
	t.Logf("%.0f allocations, %.2f per string step", allocs, per)
	if per > maxPerString {
		t.Errorf("%.2f allocations per decoded string step, want at most %.2f", per, maxPerString)
	}
}
