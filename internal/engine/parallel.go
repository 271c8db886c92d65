package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Partitioned parallel execution. A parallelNode wraps one leaf-shaped
// per-tuple operator — index select, index time-slice, a time-slice or
// filter over a base scan, or an index lookup join streaming a base
// scan — and evaluates it by splitting the operator's own input into
// contiguous range partitions (core.PartitionSlice), running the
// operator's own kernel over the partitions on a bounded worker pool,
// and concatenating the per-partition result slices in partition
// order. Because partitions are contiguous chunks of the input in
// input order and every kernel is order-preserving within its chunk,
// the concatenation reproduces the sequential operator's output order
// exactly, at any degree of parallelism — the ordered-merge
// determinism the differential harness locks byte-for-byte.
//
// Pin discipline: workers receive only the query's *Snapshot and
// partitions of the operator's input. Every tuple a worker touches
// comes from a pinned slice (a scan's batch) or a plan-time candidate set
// fenced by the plan's (relation, version) deps, and join probes go
// through the snapshot-bounded accessors (lookupKey, resolve) — so a
// worker can never observe a torn write group, exactly as the
// sequential operators cannot. The pindiscipline analyzer extends into
// worker closures to keep it that way.

// Worker-pool and partition metrics. tasks counts helper executions
// dispatched to the pool; inline counts parallel operator runs that
// executed entirely on the query goroutine (single partition, degree
// clamped to one, or pool saturated); busy_workers is the number of
// goroutines currently running partition work (helpers plus query
// goroutines); partition_rows accumulates rows produced by partition
// kernels; partitions_scanned / partitions_pruned count chunks
// evaluated versus skipped by the lifespan-range prune.
var parMetrics = struct {
	tasks   *obs.Counter
	inline  *obs.Counter
	scanned *obs.Counter
	pruned  *obs.Counter
	rows    *obs.Counter
	busy    *obs.Gauge
}{
	tasks:   obs.Default.Counter("engine.parallel.tasks"),
	inline:  obs.Default.Counter("engine.parallel.inline"),
	scanned: obs.Default.Counter("engine.parallel.partitions_scanned"),
	pruned:  obs.Default.Counter("engine.parallel.partitions_pruned"),
	rows:    obs.Default.Counter("engine.parallel.partition_rows"),
	busy:    obs.Default.Gauge("engine.parallel.busy_workers"),
}

// ---------------------------------------------------------------------
// degree-of-parallelism plumbing

// defaultWorkers is the degree of parallelism queries use when neither
// their context (WithWorkers) nor their DB (`-workers`) carries an
// explicit setting: GOMAXPROCS as of process start.
var defaultWorkers = runtime.GOMAXPROCS(0)

// workersCtxKey carries a per-query degree override in a context.
type workersCtxKey struct{}

// WithWorkers returns a context whose queries execute parallel
// operators with degree n (n < 1 means GOMAXPROCS). The
// degree is an execution-time property of the snapshot, never part of
// the plan, so sessions with different settings share cached plans.
func WithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, workersCtxKey{}, n)
}

// workersFrom resolves the degree a query pinned under ctx should use.
func workersFrom(ctx context.Context) int {
	if ctx != nil {
		if n, ok := ctx.Value(workersCtxKey{}).(int); ok && n >= 1 {
			return n
		}
	}
	return defaultWorkers
}

// parallelMinInput gates planning a parallel operator: inputs below it
// (tuples or candidates at plan time) keep the plain sequential node,
// so small stores — unit-test fixtures, golden files, the CI bench
// smoke — plan exactly as before. Variable for tests and tuning via
// SetParallelThreshold.
var parallelMinInput atomic.Int64

const defaultParallelThreshold = 4096

func init() { parallelMinInput.Store(defaultParallelThreshold) }

// SetParallelThreshold sets the minimum input size (tuples or plan-time
// candidates) at which the planner wraps an eligible operator in a
// parallel node, returning the previous threshold. Cached plans keep
// the shape they were compiled with; callers changing the threshold
// mid-process (tests) should ResetPlanCache.
func SetParallelThreshold(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelMinInput.Swap(int64(n)))
}

// parallelChunkSize is the partition granularity: half the engage
// threshold, so any input big enough to plan parallel splits into at
// least two chunks. Chunk boundaries depend only on the input length —
// never on the degree — which keeps partition layout (and therefore
// pruning counts and merged output) identical across worker counts.
func parallelChunkSize() int {
	c := int(parallelMinInput.Load()) / 2
	if c < 1 {
		c = 1
	}
	return c
}

// ---------------------------------------------------------------------
// bounded worker pool

// workerPool is the process-wide bounded pool parallel operators draw
// helpers from: GOMAXPROCS goroutines consuming a buffered task
// channel, started lazily on first use. Submission never blocks — a
// full queue falls back to the submitting query goroutine running the
// work itself — so a saturated pool degrades to inline execution
// instead of queueing unboundedly or deadlocking. Helper tasks hold no
// locks and always terminate (a query's partitions are finite), so
// every queued task eventually runs and every wg.Wait returns.
var workerPool struct {
	once  sync.Once
	tasks chan func()
}

func poolStart() {
	size := runtime.GOMAXPROCS(0)
	if size < 1 {
		size = 1
	}
	workerPool.tasks = make(chan func(), size)
	for i := 0; i < size; i++ {
		go func() {
			for f := range workerPool.tasks {
				f()
			}
		}()
	}
}

// poolSubmit enqueues f on the pool, reporting false when the queue is
// full (the caller then runs the work inline).
func poolSubmit(f func()) bool {
	workerPool.once.Do(poolStart)
	select {
	case workerPool.tasks <- f:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------------
// the parallel operator

// parallelNode evaluates child's semantics by partitioned parallel
// execution: it borrows child's input and kernel instead of running
// child, which stays in the plan tree unexecuted (EXPLAIN, baseRel
// walks, estimate). window, when armed, prunes partitions whose
// lifespan bounds miss it entirely.
type parallelNode struct {
	child tupleOp
	// window/windowed arm the lifespan-range partition prune; pruneSel
	// is the estimated fraction of partitions surviving it (from the
	// relation's lifespan-density statistics; set only when armed).
	window   lifespan.Lifespan
	windowed bool
	pruneSel float64
}

func (n *parallelNode) scheme() *schema.Scheme { return n.child.scheme() }
func (n *parallelNode) children() []node       { return []node{n.child} }

func (n *parallelNode) estimate() cost {
	c := n.child.estimate()
	if n.windowed {
		// Density statistics bound how much of the scan the
		// lifespan-range prune can skip: partitions whose bounds miss
		// the window cost nothing.
		c.work *= n.pruneSel
	}
	return c
}

func (n *parallelNode) describe() string {
	d := fmt.Sprintf("parallel (chunk=%d", parallelChunkSize())
	if n.windowed {
		d += fmt.Sprintf(", prune-window %s", n.window)
	}
	return d + ")"
}

func (n *parallelNode) run(s *Snapshot) (batch, error) {
	if s != nil && s.prof != nil {
		// Pre-create the stats entry workers may touch (profLookup on the
		// wrapped join): all map writes happen on the query goroutine,
		// before the fan-out, so workers only ever read the map.
		s.prof.stats(n.child)
	}
	in, err := n.child.input(s)
	if err != nil {
		return batch{}, err
	}
	out, err := n.runPartitions(s, in)
	return batch{scheme: n.scheme(), ts: out}, err
}

// runPartitions is the parallel executor: partition the input, prune
// by lifespan bounds, fan the surviving chunks out over up to
// Snapshot.workers goroutines (the query goroutine always works;
// helpers come from the bounded pool), and concatenate the per-chunk
// results in chunk order.
func (n *parallelNode) runPartitions(s *Snapshot, in []*core.Tuple) ([]*core.Tuple, error) {
	parts := core.PartitionSlice(in, parallelChunkSize())
	degree := 1
	if s != nil && s.workers > degree {
		degree = s.workers
	}
	if degree > len(parts) {
		degree = len(parts)
	}

	results := make([][]*core.Tuple, len(parts))
	var next atomic.Int32
	var stop atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	var scanned, pruned, rows atomic.Int64

	workerBody := func() {
		parMetrics.busy.Add(1)
		defer parMetrics.busy.Add(-1)
		kern := n.child.kernel(s)
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(parts) {
				return
			}
			p := parts[i]
			if n.windowed && !p.Overlaps(n.window) {
				pruned.Add(1)
				continue
			}
			scanned.Add(1)
			out, err := s.apply(kern, p.Tuples, nil)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
				return
			}
			rows.Add(int64(len(out)))
			results[i] = out
		}
	}

	helpers := 0
	var wg sync.WaitGroup
	for w := 1; w < degree; w++ {
		wg.Add(1)
		submitted := poolSubmit(func() {
			defer wg.Done()
			workerBody()
		})
		if submitted {
			helpers++
			parMetrics.tasks.Inc()
		} else {
			wg.Done()
		}
	}
	if helpers == 0 {
		parMetrics.inline.Inc()
	}
	workerBody()
	wg.Wait()

	parMetrics.scanned.Add(uint64(scanned.Load()))
	parMetrics.pruned.Add(uint64(pruned.Load()))
	parMetrics.rows.Add(uint64(rows.Load()))
	if s != nil && s.prof != nil {
		s.prof.stats(n).par = &parStats{
			degree:  helpers + 1,
			parts:   len(parts),
			scanned: int(scanned.Load()),
			pruned:  int(pruned.Load()),
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	merged := make([]*core.Tuple, 0, total)
	for _, r := range results {
		merged = append(merged, r...)
	}
	return merged, nil
}

// ---------------------------------------------------------------------
// planner wrappers

// maybeParallel wraps n in a parallel node when it has an eligible
// shape — a per-tuple operator over a partitionable input (a plan-time
// candidate slice, fenced like every other plan-time constant by the
// plan's deps, or a base scan's pinned tuples) — and that input is
// large enough to amortize the fan-out. Called after costing picked n,
// so parallelism never changes which logical strategy wins.
func maybeParallel(n node, lc *lowerCtx) node {
	op, ok := n.(tupleOp)
	if !ok {
		return n
	}
	p := &parallelNode{child: op}
	th := int(parallelMinInput.Load())
	bigScan := func(child node) (*scanNode, bool) {
		sc, ok := child.(*scanNode)
		return sc, ok && sc.rel.Cardinality() >= th
	}
	switch x := n.(type) {
	case *indexSelectNode:
		if len(x.cand) >= th {
			return p
		}
	case *indexTimeSliceNode:
		if len(x.cand) >= th {
			return p
		}
	case *timeSliceNode:
		if sc, ok := bigScan(x.child); ok {
			p.armWindow(x.L, timesliceSelectivity(lc.relStats(sc.name, sc.rel), x.L))
			return p
		}
	case *filterNode:
		if sc, ok := bigScan(x.child); ok {
			if !x.forAll {
				// ∀ keeps tuples with empty scope (vacuous truth), so
				// only the existential and WHEN forms may skip
				// partitions that miss the DURING window.
				p.armWindow(x.L, timesliceSelectivity(lc.relStats(sc.name, sc.rel), x.L))
			}
			return p
		}
	case *indexJoinNode:
		if _, ok := bigScan(x.stream); ok {
			return p
		}
	}
	return n
}

// armWindow enables the lifespan-range partition prune for window L,
// with sel the density-statistics estimate of the surviving fraction.
func (n *parallelNode) armWindow(L lifespan.Lifespan, sel float64) {
	if L.Equal(lifespan.All()) {
		return
	}
	n.window = L
	n.windowed = true
	n.pruneSel = clamp01(sel)
	if n.pruneSel <= 0 {
		n.pruneSel = 1.0 / 256
	}
}
