package engine

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/workload"
)

// resetIndexes drops every index built over r, so the next probe
// rebuilds it from scratch.
func resetIndexes(r *core.Relation) {
	x := Indexes(r)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.interval, x.attrs, x.ranges = nil, make(map[string]*AttrIndex), make(map[string]*IntervalIndex)
}

// TestIndexSetLivesWithRelation: a relation's index set is its change
// observer, not an entry in a process-wide map, so every call finds the
// same set and the garbage collector frees it with its relation.
func TestIndexSetLivesWithRelation(t *testing.T) {
	wp := func() weak.Pointer[RelIndexes] {
		r := workload.Personnel(workload.PersonnelConfig{
			NumEmployees: 30, HistoryLen: 100, ChangeEvery: 10, Seed: 5,
		})
		x := Indexes(r)
		if Indexes(r) != x {
			t.Fatal("a second Indexes call built another set")
		}
		if x.Interval().Tuples() != r.Cardinality() || x.Attr("DEPT") == nil {
			t.Fatal("indexes answered nothing")
		}
		return weak.Make(x)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the index set outlived its relation")
	}
}
