//go:build !race

// The race detector changes what the runtime allocates (and pools drop
// items at random under it), so allocation bounds hold only without it:
// this file builds only without -race.

package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestJoinAllocsPerPair bounds what one joined pair of an index lookup
// join allocates, on BenchmarkParallelDegree's data and its EMP JOIN
// REF ON DEPT = GRP: at most 8 allocations per result tuple, the probes
// of the streamed EMP tuples and the query's fixed cost included. A pair costs its
// agreement lifespan, its value slice, one shared allocation for the
// restricted values' steps and the tuple header; building each joined
// tuple's values as a map costs about 10.
func TestJoinAllocsPerPair(t *testing.T) {
	const n, maxPerPair = 8000, 8
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 31,
	}))
	st.Put(groupRef(n / 16))
	s := sessAt(st, 1)
	e, err := hql.Parse(`EMP JOIN REF ON DEPT = GRP`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Eval(bg, e)
	if err != nil {
		t.Fatal(err)
	}
	pairs := r.Relation.Cardinality()
	if pairs < 1000 {
		t.Fatalf("only %d joined pairs; the bound needs a join with output", pairs)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Eval(bg, e); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(pairs)
	t.Logf("%d pairs, %.0f allocations per query, %.2f per pair", pairs, allocs, per)
	if per > maxPerPair {
		t.Errorf("%.2f allocations per joined pair, want at most %d", per, maxPerPair)
	}
}

// TestKeyProbeAllocs: a probe of a single-attribute key builds the key
// once, with value.KeyOf from a stack buffer, and looks it up as a
// value.Key: two allocations fewer than looking up the value's
// rendering, which costs the rendering and EncodeKey's buffer and
// string. The whole probe is that key and the candidate slice.
func TestKeyProbeAllocs(t *testing.T) {
	emp, _ := workload.Demo().Get("EMP")
	_, vers := core.Pin(emp)
	v, name := vers[0], value.String_("John")
	p := newEqProbe(v, "NAME")
	if got := p.candidates(name); len(got) != 1 {
		t.Fatalf("key probe for John: %d candidates, want 1", len(got))
	}
	byKey := testing.AllocsPerRun(100, func() { v.LookupKey(value.KeyOf(name)) })
	byRendering := testing.AllocsPerRun(100, func() { v.Lookup(name.String()) })
	if byKey != byRendering-2 {
		t.Errorf("key lookup: %.0f allocations, rendering lookup %.0f; want 2 fewer", byKey, byRendering)
	}
	if probe := testing.AllocsPerRun(100, func() { p.candidates(name) }); probe > 2 {
		t.Errorf("key probe: %.0f allocations, want at most 2 (the key and the candidate slice)", probe)
	}
}
