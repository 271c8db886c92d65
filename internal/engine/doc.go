// Package engine is the physical query-execution subsystem layered over
// the HRDM algebra of internal/core.
//
// The algebra operators are faithful linear scans — every TIME-SLICE,
// SELECT and JOIN walks all tuples and their chronon sets. This package
// adds the classic relational-engine machinery on top without touching
// the model semantics: a lifespan interval index (which tuples are alive
// over [t1,t2] in O(log n + k)), the relation's key map for a
// single-attribute key and attribute hash indexes, built on first
// probe, over the constant-valued functions the paper's CD domains
// guarantee, a planner that lowers parsed HQL expressions into
// physical plans with selection and time-slice pushdown (core's
// linear-scan operators wherever no index applies) — every choice the
// data prices, which probe to take or which join side to stream, is
// made by each run against its pin — and a plan cache that lets
// repeated queries skip parse and plan entirely.
// An index belongs to one pinned version and never changes: a probe
// reuses the relation's cached index set when it was built at the
// pin's version or later, and builds one from the pin otherwise. A
// plan is a pure shape over schemes and holds no data:
// every query executes against a pinned epoch snapshot of its
// relations (core.Pin), through which every scan, index probe and
// WHEN-valued lifespan parameter is read, so multi-relation plans read
// one consistent database state with zero locks on the scan path even
// while writers publish, and cached plans survive writes.
//
// One way in: a DB wraps a store and hands out Sessions, and a
// Session's Query / Eval / Explain / ExplainAnalyze are the only ways
// to run a query (internal/hql keeps the parser and the naive reference
// evaluator, the oracle the engine is property-tested against over
// randomized workloads). One way to execute: every plan node has a
// single method, run, returning its whole result as a batch; a
// per-tuple operator (time-slice, select, project, rename, index join)
// binds to the pin as an input set plus a kernel, and one loop applies
// a kernel to an input slice either sequentially or over contiguous
// chunks of it on the worker pool, at the degree of the session's DB.
// Batches become
// relations in exactly one place (batch.relation: the plan root, the
// inputs of naive operators and lifespan sub-plans).
//
// The concurrency lifecycle — how plans, pins, write groups and the
// plan cache interlock — is documented in docs/ARCHITECTURE.md; the
// EXPLAIN output format is documented line by line in docs/EXPLAIN.md.
package engine
