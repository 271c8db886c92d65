package core

import (
	"fmt"
	"strings"

	"repro/internal/lifespan"
	"repro/internal/schema"
)

// Compound selection criteria. The paper's σ takes "a simple predicate
// over the attributes of the tuple"; compound conditions are expressible
// by composing operators (σ-WHEN p1 ∘ σ-WHEN p2 for conjunction), but
// only awkwardly for σ-IF — ∃s(p1 ∧ p2) is not ∃s p1 ∧ ∃s p2. Condition
// trees close the algebra over ∧, ∨ and ¬ by combining the satisfaction
// lifespans of the leaves with lifespan set algebra, which is exactly the
// semantics of the paper's time-indexed predicates.

// Condition is a boolean combination of simple predicates, evaluated to
// the set of times at which it holds for a tuple.
type Condition interface {
	fmt.Stringer
	// when returns the satisfaction lifespan of the condition for t
	// within scope. For ¬, undefined attribute values make the inner
	// predicate false, so negation can resurrect those times — matching
	// a closed-world reading of "the attribute does not equal a then".
	when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error)
	// bind validates attribute references against a scheme and returns
	// the condition with every predicate bound to it (Predicate.Bind).
	bind(s *schema.Scheme) (Condition, error)
}

// Atom wraps a simple predicate as a condition.
type Atom struct{ Pred Predicate }

// And holds when every child holds.
type And struct{ Kids []Condition }

// Or holds when some child holds.
type Or struct{ Kids []Condition }

// Not holds when its child does not.
type Not struct{ Kid Condition }

// String renders the atom.
func (a Atom) String() string { return a.Pred.String() }

// String renders the conjunction.
func (c And) String() string { return renderKids(c.Kids, " AND ") }

// String renders the disjunction.
func (c Or) String() string { return renderKids(c.Kids, " OR ") }

// String renders the negation.
func (c Not) String() string { return "NOT (" + c.Kid.String() + ")" }

func renderKids(kids []Condition, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (a Atom) when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	return a.Pred.when(t, scope)
}

func (a Atom) bind(s *schema.Scheme) (Condition, error) {
	return Atom{Pred: a.Pred.Bind(s)}, checkPredicate(s, a.Pred)
}

func (c And) when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	acc := scope
	for _, k := range c.Kids {
		w, err := k.when(t, scope)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		acc = acc.Intersect(w)
		if acc.IsEmpty() {
			return acc, nil
		}
	}
	return acc, nil
}

func (c And) bind(s *schema.Scheme) (Condition, error) {
	kids, err := bindKids(s, c.Kids)
	return And{Kids: kids}, err
}

func (c Or) when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	acc := lifespan.Empty()
	for _, k := range c.Kids {
		w, err := k.when(t, scope)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		acc = acc.Union(w)
	}
	return acc.Intersect(scope), nil
}

func (c Or) bind(s *schema.Scheme) (Condition, error) {
	kids, err := bindKids(s, c.Kids)
	return Or{Kids: kids}, err
}

func (c Not) when(t *Tuple, scope lifespan.Lifespan) (lifespan.Lifespan, error) {
	w, err := c.Kid.when(t, scope)
	if err != nil {
		return lifespan.Lifespan{}, err
	}
	return scope.Minus(w), nil
}

func (c Not) bind(s *schema.Scheme) (Condition, error) {
	kid, err := c.Kid.bind(s)
	return Not{Kid: kid}, err
}

func bindKids(s *schema.Scheme, kids []Condition) ([]Condition, error) {
	if len(kids) == 0 {
		return nil, fmt.Errorf("core: empty boolean combination")
	}
	out := make([]Condition, len(kids))
	for i, k := range kids {
		var err error
		if out[i], err = k.bind(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SelectIfCond is SELECT-IF generalized to condition trees: the tuple
// passes whole if the condition holds at some (∃) or every (∀) time of
// L ∩ t.l.
func SelectIfCond(r *Relation, c Condition, q Quantifier, L lifespan.Lifespan) (*Relation, error) {
	c, err := c.bind(r.scheme)
	if err != nil {
		return nil, err
	}
	out := NewRelation(r.scheme)
	for _, t := range r.Tuples() {
		scope := t.l.Intersect(L)
		holds, err := c.when(t, scope)
		if err != nil {
			return nil, fmt.Errorf("core: select-if %s: %w", c, err)
		}
		var keep bool
		if q == Exists {
			keep = !holds.IsEmpty()
		} else {
			keep = scope.Minus(holds).IsEmpty()
		}
		if keep {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SelectWhenCond is SELECT-WHEN generalized to condition trees: each
// tuple shrinks to exactly the times the condition holds.
func SelectWhenCond(r *Relation, c Condition, L lifespan.Lifespan) (*Relation, error) {
	c, err := c.bind(r.scheme)
	if err != nil {
		return nil, err
	}
	return restrictEach(r, func(t *Tuple) (lifespan.Lifespan, error) {
		holds, err := c.when(t, t.l.Intersect(L))
		if err != nil {
			return holds, fmt.Errorf("core: select-when %s: %w", c, err)
		}
		return holds, nil
	})
}
