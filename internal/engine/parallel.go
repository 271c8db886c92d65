package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Partitioned parallel execution. A per-tuple operator whose bound
// input is a slice of a pinned base relation — an index's candidates,
// or the tuples of a base scan under a time-slice, a filter or the
// streamed side of an index lookup join — and at least parallelMinInput
// tuples long is evaluated by splitting that input into contiguous
// range partitions (core.PartitionSlice), running the operator's own
// kernel over the partitions on a bounded worker pool, and
// concatenating the per-partition result slices in partition order.
// Because partitions are contiguous chunks of the input in input order
// and every kernel is order-preserving within its chunk, the
// concatenation reproduces the sequential output order exactly, at any
// degree of parallelism — the ordered-merge determinism the
// differential harness locks byte-for-byte.
//
// Pin discipline: workers receive only the operator's bound input and
// kernel. Every tuple a worker touches comes from a pinned slice, and
// join probes go through the pin (eqProbe) — so a worker can never
// observe a torn write group, exactly as the query goroutine cannot.
// The pindiscipline analyzer extends into worker closures to keep it
// that way.

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

// parallelMinInput is the engage threshold: bound inputs shorter than
// it run on the query goroutine, so small stores — unit-test fixtures,
// golden files — never pay a fan-out. Variable for tests and tuning via
// SetParallelThreshold.
var parallelMinInput atomic.Int64

const defaultParallelThreshold = 4096

func init() { parallelMinInput.Store(defaultParallelThreshold) }

// SetParallelThreshold sets the minimum pinned input size (tuples or
// index candidates) at which an eligible operator runs partitioned,
// returning the previous threshold.
func SetParallelThreshold(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelMinInput.Swap(int64(n)))
}

// partitioned is the engage rule, read at execution off the input the
// operator just bound.
func partitioned(b bound) bool {
	return b.partition && len(b.in) >= int(parallelMinInput.Load())
}

// parallelNote is the engage rule as EXPLAIN shows it: the suffix of an
// eligible operator whose pinned input is in long enough to run
// partitioned, with the prune window if one is known before execution.
func parallelNote(in int, window *lsExpr) string {
	if in < int(parallelMinInput.Load()) {
		return ""
	}
	d := fmt.Sprintf(", parallel (chunk=%d", parallelChunkSize())
	if window.literal() && !window.isAll() {
		d += fmt.Sprintf(", prune-window %s", window)
	}
	return d + ")"
}

// parallelChunkSize is the partition granularity: half the engage
// threshold, so any input big enough to engage splits into at least
// two chunks. Chunk boundaries depend only on the input length —
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
// the parallel executor

// runPartitions runs op's bound kernel over its bound input in
// parallel: partition the input, skip the chunks whose lifespan bounds
// miss the operator's window entirely, fan the rest out over up to
// Snapshot.workers goroutines (the query goroutine always works;
// helpers come from the bounded pool), and concatenate the per-chunk
// results in chunk order.
func (s *Snapshot) runPartitions(op tupleOp, b bound) ([]*core.Tuple, error) {
	parts := core.PartitionSlice(b.in, parallelChunkSize())
	degree := 1
	if s.workers > degree {
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
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(parts) {
				return
			}
			p := parts[i]
			if b.windowed && !p.Overlaps(b.window) {
				pruned.Add(1)
				continue
			}
			scanned.Add(1)
			out, err := s.apply(b.kernel, p.Tuples, nil)
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
	if s.prof != nil {
		s.prof.stats(op).par = &parStats{
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
