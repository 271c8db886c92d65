// Package obs is the engine's observability substrate: a
// dependency-free, race-safe metrics registry (atomic counters, gauges,
// bounded exponential histograms with quantile estimation, and a
// ring-buffer slow-query log) plus a lightweight span type that times
// the stages of a query's lifecycle (parse → plan → pin → execute →
// materialize).
//
// The package deliberately imports nothing beyond the standard library
// and is imported by every other layer — core publishes lock-contention
// and write-group metrics, the engine publishes query/plan-cache/index
// metrics, the CLI and the server read them back — so it must
// never grow a dependency on any of those layers.
//
// Design constraints, in order:
//
//   - Hot-path cost. A counter increment is one atomic add; a histogram
//     observation is a bit-length computation plus three atomic adds; a
//     span mark is one monotonic clock read. Nothing on the per-query
//     path takes a lock or allocates. The registry's own lock guards
//     only metric registration (get-or-create), which callers do once
//     at package init and cache in a variable.
//   - Race safety. All metric types are safe for concurrent use, and
//     Snapshot may run while writers are mid-update (it reads each
//     atomic independently; cross-metric consistency is not promised,
//     per-metric monotonicity is).
//   - Bounded memory. Histograms are fixed-size bucket arrays; the slow
//     log is a fixed-capacity ring that overwrites its oldest entry.
//
// Registry.Snapshot returns a plain JSON-marshalable value — the
// expvar-style dump the CLI's \metrics command prints and the server's
// metrics op returns — and Snapshot.CounterDelta supports interval
// accounting without resetting live metrics.
//
// See docs/OBSERVABILITY.md for the metric catalog and the span
// lifecycle.
package obs
