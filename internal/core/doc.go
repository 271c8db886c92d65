// Package core implements the structures and algebra of the Historical
// Relational Data Model (HRDM) — the primary contribution of Clifford &
// Croker (1987).
//
// A historical tuple t on scheme R is an ordered pair t = ⟨v, l⟩ where
// t.l is the tuple's lifespan and t.v assigns to each attribute A ∈ R a
// partial temporal function into DOM(A) defined on t.l ∩ ALS(A,R)
// (Section 3). t.v is held positionally, one function per attribute in
// the scheme's attribute order, and a relation holds only tuples laid
// out in its own order; the set operators re-lay an operand whose scheme
// lists the same attributes in another order, sharing the functions.
// A historical relation is a finite set of such tuples whose
// key values are pairwise distinct at every pair of time points. The
// algebra over these structures (Section 4) comprises the set-theoretic
// operators and their object-based variants, PROJECT, SELECT-IF,
// SELECT-WHEN, static and dynamic TIME-SLICE, WHEN, and the JOIN family.
//
// Beyond the paper, the package carries the repository's concurrency
// model (see docs/ARCHITECTURE.md): relations synchronize reads and
// writes with an RWMutex and hand out immutable tuple-slice snapshots;
// published relations participate in an epoch-based publication
// protocol (epoch.go) under which Pin captures transaction-consistent
// multi-relation cuts; and WriteGroup (writegroup.go) stages mutations
// across several relations and publishes them as one atomic unit — one
// publish-lock acquisition, one epoch tick, one version bump per
// relation — so a pinned snapshot can never observe a partially applied
// group.
//
// Sharing contract: tuples, their temporal functions and lifespans are
// immutable, so a derived tuple, function or lifespan may share storage
// with its input — t|L is t itself when L covers t.l, and a restriction
// or intersection that changes nothing returns its operand. Code must
// therefore never mutate a value it did not just allocate, and must not
// read pointer equality between a result tuple and a base tuple as
// "not derived". NewRelationFromTuples adopts the caller's tuple
// slice rather than copying it, and keeps the positions of its tuples
// sorted by key beside it (NewRelationKeyOrdered adopts a slice already
// in key order): the caller must not touch the slice again.
// Renderings read that order; the key map is derived from the tuples,
// under the relation's lock, by whichever keyed operation needs it
// first; the first mutation drops the order. A pinned version's key
// order (RelVersion.KeyOrdered) is cached on its relation, tagged with
// the version it describes, and is shared read-only by every reader of
// that version.
package core
