package engine

import (
	"sync/atomic"
	"time"
)

// profiler collects per-operator actuals for EXPLAIN ANALYZE: rows
// produced, wall time, and index lookups. It is attached to a single
// query's Snapshot (Snapshot.prof), so normal execution — where prof
// is nil — pays exactly one nil check per operator (Snapshot.run) and
// zero per-tuple cost. Profiled and unprofiled queries run the same
// code. A profiler is owned by one executing query and is not safe for
// concurrent use, which matches how snapshots are used.
type profiler struct {
	ops map[node]*opStats
}

// opStats is one operator's measured execution. rows and wall are
// written once, by the query goroutine (Snapshot.run); lookups is
// atomic because a parallel join's workers probe — and count —
// concurrently. par carries the parallel executor's partition
// accounting, written once after the fan-in.
type opStats struct {
	rows    int64
	wall    time.Duration
	lookups atomic.Int64
	par     *parStats
}

// parStats is one parallel operator's partition accounting: the degree
// actually used (helpers + the query goroutine) and total partitions.
type parStats struct {
	degree int
	parts  int
}

func newProfiler() *profiler {
	return &profiler{ops: make(map[node]*opStats)}
}

func (pf *profiler) stats(n node) *opStats {
	st, ok := pf.ops[n]
	if !ok {
		st = &opStats{}
		pf.ops[n] = st
	}
	return st
}

// profLookups counts k index probes against the node's indexed side.
// Safe from parallel workers: the node's stats entry is created by the
// query goroutine before its kernel runs anywhere (Snapshot.run), and
// the count itself is atomic.
func (s *Snapshot) profLookups(n node, k int) {
	if s.prof != nil {
		s.prof.stats(n).lookups.Add(int64(k))
	}
}
