package engine

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// A plan is compiled for a query's shape (hql.Lift): its literals are
// slots, numbered in source order, and each execution binds them from
// its text's parameter vector — a []param indexed by slot, carried by
// the execution's Snapshot. Condition constants, an index-select's
// probe value, literal lifespans and the SNAPSHOT time are all read
// from it at bind. Planning reads a text's literals only to type-check
// its conditions' constants, so a plan is the same whichever text of
// its shape missed, and every choice a literal's value prices is made
// at execution.

// param is one slot's value in an execution: a value literal (a
// condition constant, a SNAPSHOT time) or a lifespan literal.
type param struct {
	v  value.Value
	ls lifespan.Lifespan
}

// time is a SNAPSHOT time, written as an integer or as @t.
func (p param) time() chronon.Time {
	if p.v.Kind() == value.KindTime {
		return p.v.AsTime()
	}
	return chronon.Time(p.v.AsInt())
}

// decodeParams appends the values of a text's literals to ps, slot by
// slot, decoded as the parser and the naive evaluator decode them.
func decodeParams(lits []hql.Literal, ps []param) ([]param, error) {
	for _, l := range lits {
		var p param
		var err error
		if l.Kind == hql.LitLifespan {
			p.ls, err = lifespan.Parse(l.Text)
		} else {
			p.v, err = l.Value()
		}
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// astParams is the parameter vector of an expression parsed by a
// caller that did not lift its text (PlanQuery): the literals of its
// canonical rendering, which lists them in the order the parser
// numbered them (FuzzNormalizeQuery checks this).
func astParams(e hql.Expr) ([]param, error) {
	_, lits, ok := hql.Lift(e.String(), nil, nil)
	if !ok {
		return nil, fmt.Errorf("engine: the rendering of %s does not lex", e)
	}
	return decodeParams(lits, nil)
}

// bindCond builds the algebra's condition for one execution: the parsed
// condition's shape, each constant read from its slot in ps, and each
// predicate bound to the scheme of the tuples it will read (unbound when
// s is nil: a rendering, or a core operator that binds it itself).
func bindCond(c hql.CondExpr, ps []param, s *schema.Scheme) core.Condition {
	if p := c.Pred; p != nil {
		pred := core.Predicate{Attr: p.Attr, Theta: p.Theta, OtherAttr: p.OtherAttr}
		if p.OtherAttr == "" {
			pred.Const = ps[p.Slot].v
		}
		return core.Atom{Pred: pred.Bind(s)}
	}
	kids := make([]core.Condition, len(c.Kids))
	for i, k := range c.Kids {
		kids[i] = bindCond(k, ps, s)
	}
	switch c.Op {
	case "AND":
		return core.And{Kids: kids}
	case "OR":
		return core.Or{Kids: kids}
	}
	return core.Not{Kid: kids[0]}
}
