package core

import (
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
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
func CondCheck(c Condition, s *schema.Scheme) error { return c.check(s) }

// JoinPair is the per-pair θ-join kernel: it computes the agreement
// lifespan of t1(attrA) θ t2(attrB) and, if non-empty, the concatenated
// tuple on the join scheme rs. Returns (nil, nil) when the pair does not
// join. Index lookup joins call this once per surviving candidate pair.
func JoinPair(rs *schema.Scheme, t1, t2 *Tuple, attrA string, th value.Theta, attrB string) (*Tuple, error) {
	nl, err := thetaTimes(t1.Value(attrA), t2.Value(attrB), th)
	if err != nil {
		return nil, err
	}
	return concatTuple(rs, t1, t2, nl)
}
