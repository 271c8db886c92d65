package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hrdmerr"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestApplyCancelBatchBoundary pins the cancellation granularity
// contract of the executor's one loop: once the context is canceled,
// apply aborts within one batch — at most cancelBatch further tuples —
// with the typed ErrCanceled, instead of draining its input.
func TestApplyCancelBatchBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Snapshot{}
	s.attachCtx(ctx)
	touched := 0
	kern := func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		if touched++; touched == 10 {
			cancel()
		}
		return append(out, t), nil
	}
	in := make([]*core.Tuple, 4*cancelBatch)
	out, err := s.apply(kern, in, nil)
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("post-cancel error = %v, want ErrCanceled", err)
	}
	if out != nil {
		t.Fatalf("canceled apply returned %d tuples, want none", len(out))
	}
	if touched > 10+cancelBatch {
		t.Fatalf("kernel ran %d times after cancel, want ≤ %d", touched-10, cancelBatch)
	}
}

// TestUncancellableSnapshot checks the zero-cost fast path: a
// Background context never arms the snapshot, so execution never
// reads a context.
func TestUncancellableSnapshot(t *testing.T) {
	s := &Snapshot{}
	s.attachCtx(context.Background())
	if s.ctx != nil {
		t.Fatal("Background context armed the snapshot")
	}
	if err := s.canceled(); err != nil {
		t.Fatalf("canceled on unarmed snapshot: %v", err)
	}
}

// flipCtx is a context that reports canceled starting from its n-th
// Err() call: a deterministic stand-in for "the client cancels while
// the scan is mid-flight", without goroutine timing in the test. The
// call counter is atomic because parallel workers check concurrently.
type flipCtx struct {
	calls atomic.Int64
	after int64
	done  chan struct{}
}

func newFlipCtx(after int64) *flipCtx {
	return &flipCtx{after: after, done: make(chan struct{})}
}

func (c *flipCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flipCtx) Done() <-chan struct{}       { return c.done }
func (c *flipCtx) Value(any) any               { return nil }
func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// bigEMP is a store whose EMP spans several cancellation batches.
func bigEMP() *storage.Store {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 4 * cancelBatch, HistoryLen: 40, ChangeEvery: 10, Seed: 7,
	}))
	return st
}

// TestQueryCanceledMidScan is the end-to-end acceptance check: a
// query over a relation much larger than one cancellation batch, whose
// context flips to canceled after execution has started, returns the
// typed ErrCanceled instead of completing the scan.
func TestQueryCanceledMidScan(t *testing.T) {
	ResetPlanCache()
	st := bigEMP()
	// Survive the entry precheck and the filter's first batch boundary,
	// then cancel: the abort must come from a mid-execution check.
	ctx := newFlipCtx(2)
	// No equality conjunct → no index candidates: the plan is a full
	// scan under a filter, so execution genuinely touches every tuple.
	_, err := sess(st).Query(ctx, `SELECT WHEN SAL > 0 FROM EMP`)
	if err == nil {
		t.Fatal("canceled query completed")
	}
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if hrdmerr.CodeOf(err) != hrdmerr.CodeCanceled {
		t.Fatalf("code = %v, want CodeCanceled", hrdmerr.CodeOf(err))
	}
	if got := ctx.calls.Load(); got != 3 {
		t.Fatalf("%d context checks, want 3 — the abort must come at the first batch boundary after the cancel", got)
	}
}

// TestCanceledKernelUnderNaiveOperator: a sequential per-tuple kernel
// feeding a naive operator aborts at its own next batch boundary — the
// naive operator above it never runs.
func TestCanceledKernelUnderNaiveOperator(t *testing.T) {
	ResetPlanCache()
	st := bigEMP()
	q := `(SELECT WHEN SAL > 0 FROM EMP) UNION EMP`
	if out, err := sess(st).Explain(q); err != nil ||
		!strings.Contains(out, "union (naive)") || !strings.Contains(out, "\n  filter when") {
		t.Fatalf("plan is not a filter under a naive union (err=%v):\n%s", err, out)
	}
	ctx := newFlipCtx(2)
	_, err := sess(st).Query(ctx, q)
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if got := ctx.calls.Load(); got != 3 {
		t.Fatalf("%d context checks, want 3 (precheck, batch 0, batch 1 → abort)", got)
	}
}

// TestCanceledKernelUnderPartitions: the same kernel run over
// partitions aborts within one batch per worker — no worker starts
// another chunk once the context is done.
func TestCanceledKernelUnderPartitions(t *testing.T) {
	lowerParallelThreshold(t, 2*cancelBatch) // chunk = one cancellation batch
	st := bigEMP()
	q := `SELECT WHEN SAL > 0 FROM EMP`
	if out, err := sess(st).Explain(q); err != nil || !strings.HasPrefix(out, "query: "+q+"\nfilter when SAL>0, parallel (") {
		t.Fatalf("plan root would not run partitioned (err=%v):\n%s", err, out)
	}
	const workers = 2
	ctx := newFlipCtx(2)
	_, err := sessAt(st, workers).Query(ctx, q)
	if !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	// Precheck and the first chunk's boundary pass; from the third check
	// on every worker sees the cancel at its next boundary and stops.
	if got := ctx.calls.Load(); got < 3 || got > 2+workers {
		t.Fatalf("%d context checks, want 3..%d", got, 2+workers)
	}
}

// TestQueryPreCanceled: an already-canceled context fails fast
// with the typed error, before parsing or pinning anything.
func TestQueryPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := storage.NewStore()
	if _, err := sess(st).Query(ctx, `not even valid HQL`); !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("pre-canceled Query error = %v, want ErrCanceled", err)
	}
	if _, err := sess(st).Eval(ctx, nil); !errors.Is(err, hrdmerr.ErrCanceled) {
		t.Fatalf("pre-canceled Eval error = %v, want ErrCanceled", err)
	}
}

// TestQueryDeadline: an expired deadline surfaces as ErrDeadline,
// distinct from plain cancellation.
func TestQueryDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.DefaultPersonnel()))
	_, err := sess(st).Query(ctx, `SELECT WHEN SAL = 30000 FROM EMP`)
	if !errors.Is(err, hrdmerr.ErrDeadline) {
		t.Fatalf("expired-deadline error = %v, want ErrDeadline", err)
	}
}

// TestRunBackgroundUnchanged: uncancellable queries work and the cached
// fast path stays available to them.
func TestRunBackgroundUnchanged(t *testing.T) {
	ResetPlanCache()
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.DefaultPersonnel()))
	q := `SELECT WHEN SAL = 30000 FROM EMP`
	r1, err := sess(st).Query(bg, q)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	r2, err := sess(st).Query(bg, q)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if r1.Relation == nil || r2.Relation == nil || !r1.Relation.Equal(r2.Relation) {
		t.Fatal("cached re-run differs from first run")
	}
}
