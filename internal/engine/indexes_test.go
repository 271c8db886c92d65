package engine

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/workload"
)

// resetIndexes drops the index set cached on r, so the next probe
// builds every index from its pin.
func resetIndexes(r *core.Relation) {
	r.IndexSlot().Store((*relIndexes)(nil))
}

// cachedIndexes returns the index set cached on r, or nil.
func cachedIndexes(r *core.Relation) *relIndexes {
	x, _ := r.IndexSlot().Load().(*relIndexes)
	return x
}

// TestIndexSetLivesWithRelation: a relation's index set is held in the
// relation's own slot, not in a process-wide map, so every probe
// through one pin finds the same set and the garbage collector frees it
// with its relation.
func TestIndexSetLivesWithRelation(t *testing.T) {
	wp := func() weak.Pointer[relIndexes] {
		r := workload.Personnel(workload.PersonnelConfig{
			NumEmployees: 30, HistoryLen: 100, ChangeEvery: 10, Seed: 5,
		})
		_, vers := core.Pin(r)
		x := indexes(vers[0])
		if indexes(vers[0]) != x {
			t.Fatal("a second probe through one pin built another set")
		}
		if all, _ := overlapping(vers[0], lifespan.All(), math.MaxInt); len(all) != r.Cardinality() || x.Attr("DEPT") == nil {
			t.Fatal("indexes answered nothing")
		}
		return weak.Make(x)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the index set outlived its relation")
	}
}

// TestIndexBuiltOncePerVersion checks the reuse rule of an index set:
// after a write, the first interval, attribute and range probe through
// a pin of the new version each build their index once and find the
// fresh tuple; a repeat builds nothing; and a probe through a pin older
// than the cached set builds nothing and answers as the set built at
// that pin did, without the fresh tuple.
func TestIndexBuiltOncePerVersion(t *testing.T) {
	r := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 60, HistoryLen: 200, ChangeEvery: 10, ReincarnationProb: 0.3, Seed: 29,
	})
	probes := []struct {
		name   string
		builds *obs.Counter
		run    func(v core.RelVersion) []*core.Tuple
	}{
		{"interval", idxMetrics.intervalBuilds, func(v core.RelVersion) []*core.Tuple {
			ts, ok := overlapping(v, lifespan.Interval(60, 70), math.MaxInt)
			if !ok {
				t.Fatal("interval probe declined an unlimited budget")
			}
			return ts
		}},
		{"attr", idxMetrics.attrBuilds, func(v core.RelVersion) []*core.Tuple {
			ts, err := newEqProbe(v, "DEPT").candidates(value.String_("Fresh"))
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}},
		{"range", idxMetrics.rangeBuilds, func(v core.RelVersion) []*core.Tuple {
			ts, ok := indexes(v).Range("SAL").probe(v, rangeQuery(value.GT, value.Int(99998)), math.MaxInt)
			if !ok {
				t.Fatal("range probe declined an unlimited budget")
			}
			return ts
		}},
	}
	_, old := core.Pin(r)
	before := make([][]*core.Tuple, len(probes))
	for i, p := range probes {
		before[i] = p.run(old[0])
	}
	fresh := empTuple(r.Scheme(), "fresh", 60, 70, 99999, "Fresh")
	if err := r.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	_, now := core.Pin(r)
	for i, p := range probes {
		b0 := p.builds.Load()
		if got := p.run(now[0]); !slices.Contains(got, fresh) {
			t.Fatalf("%s: the first probe after the write misses the fresh tuple", p.name)
		}
		if got := p.builds.Load() - b0; got != 1 {
			t.Fatalf("%s: the first probe after the write built %d indexes, want 1", p.name, got)
		}
		if got := p.run(now[0]); !slices.Contains(got, fresh) {
			t.Fatalf("%s: a repeat probe misses the fresh tuple", p.name)
		}
		if got := p.run(old[0]); !slices.Equal(got, before[i]) {
			t.Fatalf("%s: through the older pin the probe found %d candidates, want the %d the pin's own index found", p.name, len(got), len(before[i]))
		}
		if got := p.builds.Load() - b0; got != 1 {
			t.Fatalf("%s: a repeat and an older pin's probe built %d indexes, want 0", p.name, got-1)
		}
	}
}
