// Fixture for the pindiscipline analyzer: raw tuple-state reads on a
// live *core.Relation are flagged; reads through a pinned RelVersion,
// fence/statistics reads, and annotated deliberate live reads are not.
package pindiscipline

import "repro/internal/core"

func rawReads(r *core.Relation) {
	r.Tuples()    // want `raw \(\*core\.Relation\)\.Tuples read outside a pinned snapshot`
	r.Lookup("k") // want `raw \(\*core\.Relation\)\.Lookup read outside a pinned snapshot`
	r.Lifespan()  // want `raw \(\*core\.Relation\)\.Lifespan read outside a pinned snapshot`
}

func pinnedReads(r *core.Relation) {
	_, vers := core.Pin(r)
	_ = vers[0].Tuples()
	if t, ok := vers[0].Lookup("k"); ok {
		_ = t
	}
}

func fenceReads(r *core.Relation) {
	_ = r.Cardinality()
	_ = r.Version()
}

func annotatedLiveRead(r *core.Relation) {
	//lint:allow pindiscipline fixture exercises the sanctioned escape hatch
	r.Tuples()
}

// Worker-goroutine shapes: a raw read called inside a spawned closure
// is the direct-call violation; a raw accessor captured as a method
// value escapes into the worker with no call site left to flag, so the
// capture itself is the violation.
func workerShapes(r *core.Relation) {
	go func() {
		r.Lookup("k") // want `raw \(\*core\.Relation\)\.Lookup read outside a pinned snapshot`
	}()
	read := r.Tuples // want `raw \(\*core\.Relation\)\.Tuples captured as a method value`
	go func() { _ = read() }()
	submit(r.Lifespan) // want `raw \(\*core\.Relation\)\.Lifespan captured as a method value`
}

func submit(task any) {}

func pinnedWorkerShapes(r *core.Relation) {
	_, vers := core.Pin(r)
	read := vers[0].Tuples // RelVersion accessors are the sanctioned capture
	go func() { _ = read() }()
	//lint:allow pindiscipline fixture exercises the capture escape hatch
	submit(r.Tuples)
}
