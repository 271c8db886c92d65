//go:build !race

// The race detector instruments every allocation and keeps shadow
// memory beside the heap, so heap figures under -race measure the
// detector: this file builds only without it.

package engine

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestLoadFootprint bounds what a loaded store keeps resident and what
// loading it allocates. It saves a 20 000-tuple personnel EMP (single
// key NAME, sparse short tenures on a long clock) and loads it with
// storage.Load, which builds no index: the interval index is built on
// its first probe. After a collection the store may hold at most 480
// bytes live per tuple — tuples and key map — and the load may have
// allocated at most 720 bytes and made at most 4 allocations per tuple.
// A load that builds each tuple's lifespan, steps and value slice in
// allocations of their own and sorts an interval index reads about 14.9
// allocations, 500 bytes live and 965 allocated here.
func TestLoadFootprint(t *testing.T) {
	const n, maxLive, maxAlloc, maxMallocs = 20000, 480, 720, 4.0
	path := filepath.Join(t.TempDir(), "emp.hrdm")
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 1,
	}))
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	st = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	emp, ok := loaded.Get("EMP")
	if !ok || emp.Cardinality() != n {
		t.Fatalf("loaded EMP = %v (found %v), want %d tuples", emp, ok, n)
	}
	live := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	alloc := int64(after.TotalAlloc-before.TotalAlloc) / n
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d B live, %d B allocated, %.1f mallocs per tuple", live, alloc, mallocs)
	if live > maxLive {
		t.Errorf("%d B live per loaded tuple, want at most %d", live, maxLive)
	}
	if alloc > maxAlloc {
		t.Errorf("%d B allocated per loaded tuple, want at most %d", alloc, maxAlloc)
	}
	if mallocs > maxMallocs {
		t.Errorf("%.1f mallocs per loaded tuple, want at most %.0f", mallocs, maxMallocs)
	}
	runtime.KeepAlive(loaded)
}
