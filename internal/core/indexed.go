package core

import (
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
)

// This file exports the per-tuple kernels of the algebra. The
// operators in unary.go and join.go are faithful linear-scan
// transliterations of the paper's definitions; the entry points here
// are the per-tuple (and per-pair) steps of those scans, so that a
// query engine holding lifespan or key indexes (internal/engine) can
// apply them to just the tuples an index has not already ruled out.
// The equivalence is property-tested against the naive operators in
// internal/engine.

// Restrict returns t|L — the tuple restricted to lifespan L, or nil when
// nothing of the tuple survives. It is the exported form of the
// restriction used by TIME-SLICE and SELECT-WHEN.
func (t *Tuple) Restrict(l lifespan.Lifespan) *Tuple { return t.restrict(l) }

// CondWhen evaluates a compound condition to its satisfaction lifespan
// for t within scope — the set of times at which the condition holds.
func CondWhen(c Condition, t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	return c.when(t, scope)
}

// CondCheck validates a condition's attribute references against a
// scheme before a plan begins streaming tuples through it.
func CondCheck(c Condition, s *schema.Scheme) error {
	_, err := c.bind(s)
	return err
}

// ProjectTuple is π's per-tuple step when the projection keeps the
// key: the tuple on rs whose i-th value is t's value at position pos[i]
// of t's scheme, over t's lifespan.
func ProjectTuple(rs *schema.Scheme, t *Tuple, pos []int) (*Tuple, error) {
	nv := make([]tfunc.Func, len(pos))
	for i, p := range pos {
		nv[i] = t.v[p]
	}
	return NewTuple(rs, t.l, nv)
}

// Renamed is RENAME's per-tuple step: t on rs, a renaming of t's
// scheme (schema.Scheme.Rename) — a new header naming t's positions by
// rs over its shared value slice, moving no value.
func (t *Tuple) Renamed(rs *schema.Scheme) *Tuple { return &Tuple{l: t.l, s: rs, v: t.v} }
