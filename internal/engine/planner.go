package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Plan is a compiled query shape: a physical operator tree plus the
// result sort of the original expression (relation, lifespan or
// snapshot) and the relations it depends on — the plan cache's validity
// fence. A plan holds no tuples, index objects or evaluated lifespans,
// and reads every literal from its slot, so a write to a relation it
// reads does not outdate it, and every text of its shape runs on it
// with its own parameters. It is a function of the query's shape and
// its relations' schemes alone: every choice the data prices — the
// probe a selection or slice takes, the side a join streams — is made
// by each run against its pin.
type Plan struct {
	root node
	kind planKind
	at   int // SNAPSHOT time slot
	deps []planDep
}

// planDep is one relation the plan depends on, resolved from the
// environment during lowering, lifespan sub-plans included. A cached
// plan is reusable while every dep still resolves to the same relation
// (schemes are immutable per relation).
type planDep struct {
	name string
	rel  *core.Relation
}

type planKind uint8

const (
	planRelation planKind = iota
	planWhen
	planSnapshot
)

// lowerCtx threads the environment and the parameters of the text
// being planned — read only to type-check a condition's constants —
// through lowering, while collecting the plan's relation dependencies.
type lowerCtx struct {
	env    hql.Env
	params []param
	deps   map[string]planDep
}

// scan records that the plan depends on relation r (resolved as name)
// and returns its leaf.
func (lc *lowerCtx) scan(name string, r *core.Relation) *scanNode {
	lc.deps[name] = planDep{name: name, rel: r}
	return &scanNode{name: name, rel: r}
}

func (lc *lowerCtx) depList() []planDep {
	out := make([]planDep, 0, len(lc.deps))
	for _, d := range lc.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// PlanQuery lowers a parsed HQL expression into a physical plan for
// its shape, type-checked with its own literals. An error means the planner
// refuses the expression: an unknown relation or operator, a literal
// that does not decode, or an operator its operands' schemes refuse.
func PlanQuery(e hql.Expr, env hql.Env) (*Plan, error) {
	ps, err := astParams(e)
	if err != nil {
		return nil, err
	}
	return planQuery(e, env, ps)
}

// planQuery lowers e for its shape, type-checked with ps — the
// parameters its own literals bind, indexed by the slots the parser
// numbered.
func planQuery(e hql.Expr, env hql.Env, ps []param) (*Plan, error) {
	p := &Plan{}
	var src hql.Expr
	switch n := e.(type) {
	case *hql.WhenExpr:
		p.kind, src = planWhen, n.Source
	case *hql.SnapshotExpr:
		p.kind, src = planSnapshot, n.Source
		p.at = n.Slot
	default:
		p.kind, src = planRelation, e
	}
	lc := &lowerCtx{env: env, params: ps, deps: make(map[string]planDep)}
	var err error
	if p.root, err = lower(src, lc); err != nil {
		return nil, err
	}
	p.deps = lc.depList()
	return p, nil
}

// run executes the plan against the given pinned snapshot and wraps
// the result in the query's sort. It is deliberately unexported: a
// Session's query methods are the only execution paths, and each pins
// a snapshot of the plan's dependencies first. sp receives the execute
// mark when the operator tree's root batch returns and the materialize
// mark after the sink has built the result relation (and, for WHEN and
// SNAPSHOT queries, derived the result from it). What fails here
// depends on the data — compile caught every scheme error — and is
// semantic, unless cancellation or a deadline classified it first.
func (p *Plan) run(s *Snapshot, sp *obs.Span) (hql.Result, error) {
	b, err := s.run(p.root)
	sp.Mark(obs.StageExecute)
	if err != nil {
		return hql.Result{}, hrdmerr.Wrap(hrdmerr.CodeSemantic, err)
	}
	res, err := p.result(b, s.params)
	sp.Mark(obs.StageMaterialize)
	return res, hrdmerr.Wrap(hrdmerr.CodeSemantic, err)
}

// result materializes the root batch and wraps it in the query's sort.
func (p *Plan) result(b batch, ps []param) (hql.Result, error) {
	if p.kind == planWhen {
		// WHEN is the union of the batch's lifespans: no relation, key
		// or order is needed.
		ls := core.LifespanOf(b.ts)
		return hql.Result{Lifespan: &ls}, nil
	}
	r, err := b.relation(p.root.scheme())
	if err != nil {
		return hql.Result{}, err
	}
	switch p.kind {
	case planSnapshot:
		snap, err := core.Snapshot(r, ps[p.at].time())
		if err != nil {
			return hql.Result{}, err
		}
		return hql.Result{Snapshot: snap}, nil
	default:
		return hql.Result{Relation: r}, nil
	}
}

// valid reports whether the plan's dependencies still resolve to the
// same relations.
func (p *Plan) valid(env hql.Env) bool {
	for _, d := range p.deps {
		if r, ok := env.Get(d.name); !ok || r != d.rel {
			return false
		}
	}
	return true
}

// render is the skeleton EXPLAIN and EXPLAIN ANALYZE share: the
// result-sort header, then the operator tree depth-first, one node per
// line — described against pin s, followed by whatever actual (if
// non-nil) appends for it.
func (p *Plan) render(b *strings.Builder, s *Snapshot, actual func(n node)) {
	depth := 0
	switch p.kind {
	case planWhen:
		b.WriteString("when (lifespan of result)\n")
		depth = 1
	case planSnapshot:
		fmt.Fprintf(b, "snapshot at %s\n", s.params[p.at].time())
		depth = 1
	}
	var visit func(n node, depth int)
	visit = func(n node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe(s))
		if actual != nil {
			actual(n)
		}
		b.WriteString("\n")
		for _, k := range n.children() {
			visit(k, depth+1)
		}
	}
	visit(p.root, depth)
}

// explain renders the physical plan against pin s.
func (p *Plan) explain(s *Snapshot) string {
	var b strings.Builder
	p.render(&b, s, nil)
	return strings.TrimRight(b.String(), "\n")
}

// lower translates a relation-valued expression into a plan node,
// choosing index-backed operators where the operands' shape admits one
// and wrapping the naive algebra otherwise.
func lower(e hql.Expr, lc *lowerCtx) (node, error) {
	switch n := e.(type) {
	case *hql.RelName:
		r, ok := lc.env.Get(n.Name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation %q", n.Name)
		}
		return lc.scan(n.Name, r), nil

	case *hql.TimesliceExpr:
		if n.By == "" {
			return lowerSlice(n, lc)
		}
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		if _, err := child.scheme().TimeIndex(n.By); err != nil {
			return nil, err
		}
		return naive1("dynamic-time-slice by "+n.By, child, child.scheme(), func(r *core.Relation) (*core.Relation, error) {
			return core.TimesliceDynamic(r, n.By)
		}), nil

	case *hql.SelectExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		return lowerSelect(n, child, allTime, lc)

	case *hql.ProjectExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		cs := child.scheme()
		rs, err := schema.ProjectScheme(cs, n.Attrs, cs.Name)
		if err != nil {
			return nil, err
		}
		if !rs.SameKey(cs) {
			return naive1("project "+strings.Join(n.Attrs, ", "), child, rs, func(r *core.Relation) (*core.Relation, error) {
				return core.Project(r, n.Attrs...)
			}), nil
		}
		pos := make([]int, len(n.Attrs))
		for i, a := range n.Attrs {
			pos[i] = cs.Index(a)
		}
		return &projectNode{child: child, attrs: n.Attrs, pos: pos, rs: rs}, nil

	case *hql.RenameExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		rs, err := child.scheme().Rename(n.Prefix)
		if err != nil {
			return nil, err
		}
		return &renameNode{child: child, prefix: n.Prefix, rs: rs}, nil

	case *hql.MaterializeExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		return naive1("materialize", child, child.scheme(), core.Materialize), nil

	case *hql.BinaryExpr:
		return lowerBinary(n, lc)

	default:
		return nil, fmt.Errorf("engine: cannot plan %T", e)
	}
}

// lowerSlice plans a static or WHEN-valued T_L(r). Over a σ-WHEN it
// plans σ-WHEN_p DURING D∩L (r) instead, which keeps the same chronons:
// σ-WHEN is pointwise (core's TestLawTimesliceCommutesWithSelect). The
// one selection then takes, against the pin, whichever of its probes
// finds the fewest candidates — Section 5's slice-vs-select order,
// decided at execution. σ-IF does not commute with slicing: it keeps
// its tuples whole, so it is sliced as written.
func lowerSlice(n *hql.TimesliceExpr, lc *lowerCtx) (node, error) {
	at, err := lowerLS(n.At, lc)
	if err != nil {
		return nil, err
	}
	src := n.Source
	sel, when := src.(*hql.SelectExpr)
	if when = when && sel.When; when {
		src = sel.Source
	}
	child, err := lower(src, lc)
	if err != nil {
		return nil, err
	}
	if when {
		return lowerSelect(sel, child, at, lc)
	}
	return lowerTimeslice(child, at, lc), nil
}

// meet is the lifespan parameter D∩L, or either operand alone when the
// other is all of time.
func meet(d, l *lsExpr) *lsExpr {
	switch {
	case d == allTime:
		return l
	case l == allTime:
		return d
	}
	return &lsExpr{op: "INTERSECT", l: d, r: l}
}

// lowerTimeslice plans a static or WHEN-valued TIME-SLICE: the
// interval index over a base relation, a per-tuple restrict over any
// other input. A static slice of a static
// slice is first composed into one by Section 5's T_L1(T_L2(r)) =
// T_{L1∩L2}(r) (core's TestLawTimesliceComposition): L1∩L2 is
// intersected at bind, and the tuples are restricted once — never more
// work than twice.
func lowerTimeslice(child node, at *lsExpr, lc *lowerCtx) node {
	if at.static() {
		switch c := child.(type) {
		case *indexTimeSliceNode:
			if c.at.static() {
				return lowerTimeslice(lc.scan(c.name, c.rel), &lsExpr{op: "INTERSECT", l: at, r: c.at}, lc)
			}
		case *timeSliceNode:
			if c.at.static() {
				return lowerTimeslice(c.child, &lsExpr{op: "INTERSECT", l: at, r: c.at}, lc)
			}
		}
	}
	if sc, ok := child.(*scanNode); ok {
		return &indexTimeSliceNode{name: sc.name, rel: sc.rel, at: at}
	}
	return &timeSliceNode{child: child, at: at}
}

// lowerSelect plans SELECT IF/WHEN over its planned source, within the
// window of a slice folded into it (allTime when none): an index-select
// over a base relation where a required equality or range conjunct, or
// a DURING lifespan, gives an index something to prune by, a per-tuple
// filter otherwise. A σ-WHEN over a static or WHEN-valued slice folds
// the slice's window into DURING too and reads the slice's source:
// σ-WHEN_p DURING D (T_L(r)) = σ-WHEN_p DURING D∩L (r). A condition
// naming an attribute the child's scheme lacks is refused here. Which
// form is chosen reads the condition's shape — attributes,
// comparators, constant kinds — never a constant's value.
func lowerSelect(n *hql.SelectExpr, child node, within *lsExpr, lc *lowerCtx) (node, error) {
	during := allTime
	if n.During != nil {
		var err error
		if during, err = lowerLS(n.During, lc); err != nil {
			return nil, err
		}
	}
	during = meet(during, within)
	if n.When {
		switch c := child.(type) {
		case *indexTimeSliceNode:
			child, during = lc.scan(c.name, c.rel), meet(during, c.at)
		case *timeSliceNode:
			child, during = c.child, meet(during, c.at)
		}
	}
	forAll := !n.When && n.ForAll
	cs := child.scheme()
	if err := core.CondCheck(bindCond(n.Cond, lc.params, nil), cs); err != nil {
		return nil, err
	}
	// ∀ quantification keeps tuples whose scope is empty (vacuous truth),
	// so no candidate pruning is sound for it.
	sc, isScan := child.(*scanNode)
	var eq, rng *hql.PredExpr
	if isScan && !forAll {
		eq = requiredAtom(n.Cond, func(p *hql.PredExpr) bool {
			return p.Theta == value.EQ && attrKind(cs, p.Attr) == p.Const.Kind()
		})
		rng = requiredAtom(n.Cond, func(p *hql.PredExpr) bool {
			k := attrKind(cs, p.Attr)
			return p.Theta != value.EQ && p.Theta != value.NE && (k == value.KindInt || k == value.KindTime) && k == p.Const.Kind()
		})
	}
	if !isScan || forAll || (eq == nil && rng == nil && during == allTime) {
		return &filterNode{child: child, cond: n.Cond, when: n.When, forAll: forAll, during: during}, nil
	}
	return &indexSelectNode{name: sc.name, rel: sc.rel, cond: n.Cond, when: n.When, during: during, eq: eq, rng: rng}, nil
}

// attrKind is the value kind of attribute a's domain in s.
func attrKind(s *schema.Scheme, a string) value.Kind {
	at, _ := s.Attr(a)
	return at.Domain.Kind
}

// requiredAtom finds an `attr θ constant` atom that want accepts and
// that is a required conjunct of the condition: the condition itself,
// or a conjunct of a (possibly nested) AND. Tuples failing such an atom
// cannot satisfy the whole condition, which is what makes index
// pruning on it sound. It returns nil when there is none.
func requiredAtom(c hql.CondExpr, want func(p *hql.PredExpr) bool) *hql.PredExpr {
	if p := c.Pred; p != nil {
		if p.OtherAttr == "" && want(p) {
			return p
		}
		return nil
	}
	if c.Op == "AND" {
		for _, k := range c.Kids {
			if p := requiredAtom(k, want); p != nil {
				return p
			}
		}
	}
	return nil
}

// lowerBinary plans the set operators, product and the join family. The
// operands' schemes decide the result's by the algebra's rules
// (internal/schema), so an ill-typed pair is refused here. The equijoin
// gets the index treatment; everything else wraps the naive operator
// over planned children.
func lowerBinary(n *hql.BinaryExpr, lc *lowerCtx) (node, error) {
	left, err := lower(n.Left, lc)
	if err != nil {
		return nil, err
	}
	right, err := lower(n.Right, lc)
	if err != nil {
		return nil, err
	}
	ls, rs := left.scheme(), right.scheme()
	merge := strings.HasSuffix(n.Op, "MERGE")
	var (
		s     *schema.Scheme
		apply func(l, r *core.Relation) (*core.Relation, error)
	)
	name := strings.ToLower(n.Op)
	switch n.Op {
	case "UNION", "UNIONMERGE":
		s, err = schema.UnionScheme(ls, rs, merge)
		apply = core.Union
		if merge {
			apply = core.UnionMerge
		}
	case "INTERSECT", "INTERSECTMERGE":
		s, err = schema.IntersectScheme(ls, rs, merge)
		apply = core.Intersect
		if merge {
			apply = core.IntersectMerge
		}
	case "MINUS", "MINUSMERGE":
		s, err = schema.DiffScheme(ls, rs, merge)
		apply = core.Diff
		if merge {
			apply = core.DiffMerge
		}
	case "TIMES":
		s, err = schema.ProductScheme(ls, rs)
		apply = core.Product
	case "JOIN":
		if s, err = schema.JoinScheme(ls, rs, n.AttrA, n.AttrB); err == nil && n.Theta == value.EQ {
			return lowerEquiJoin(n, left, right, s), nil
		}
		th := n.Theta
		name = fmt.Sprintf("theta-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoin(l, r, n.AttrA, th, n.AttrB)
		}
	case "OUTERJOIN":
		s, err = schema.JoinScheme(ls, rs, n.AttrA, n.AttrB)
		th := n.Theta
		name = fmt.Sprintf("outer-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoinOuter(l, r, n.AttrA, th, n.AttrB)
		}
	case "NATJOIN":
		s, err = schema.NaturalJoinScheme(ls, rs)
		name = "natural-join"
		apply = core.NaturalJoin
	case "TIMEJOIN":
		s, err = schema.TimeJoinScheme(ls, rs, n.AttrA)
		name = "time-join @" + n.AttrA
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.TimeJoin(l, r, n.AttrA)
		}
	default:
		return nil, fmt.Errorf("engine: unknown operator %s", n.Op)
	}
	if err != nil {
		return nil, err
	}
	return naive2(name, left, right, s, apply), nil
}

// lowerEquiJoin plans r1 JOIN r2 [A = B], whose result scheme is rs:
// an index lookup join when A and B are of one value kind and an
// operand is a base relation — the side a lookup can probe — and the
// naive nested loop otherwise. When both operands are base relations,
// each run picks the side to stream against its pin.
func lowerEquiJoin(n *hql.BinaryExpr, left, right node, rs *schema.Scheme) node {
	ls, rrs := left.scheme(), right.scheme()
	if attrKind(ls, n.AttrA) == attrKind(rrs, n.AttrB) {
		j := &indexJoinNode{side: [2]joinSide{newJoinSide(left, n.AttrA), newJoinSide(right, n.AttrB)},
			rs: rs, join: core.NewJoiner(rs, ls, rrs, n.AttrA, value.EQ, n.AttrB)}
		if j.side[0].rel != nil || j.side[1].rel != nil {
			return j
		}
	}
	return naive2(fmt.Sprintf("equi-join %s=%s", n.AttrA, n.AttrB), left, right, rs,
		func(l, r *core.Relation) (*core.Relation, error) { return core.EquiJoin(l, r, n.AttrA, n.AttrB) })
}

// naive1 wraps a unary naive operator over a planned child; rs is its
// result scheme.
func naive1(label string, child node, rs *schema.Scheme, apply func(*core.Relation) (*core.Relation, error)) *opNode {
	return &opNode{label: label, kids: []node{child}, rs: rs,
		apply: func(rels []*core.Relation) (*core.Relation, error) { return apply(rels[0]) }}
}

// naive2 wraps a binary naive operator over planned children; rs is its
// result scheme.
func naive2(label string, left, right node, rs *schema.Scheme, apply func(l, r *core.Relation) (*core.Relation, error)) *opNode {
	return &opNode{label: label, kids: []node{left, right}, rs: rs,
		apply: func(rels []*core.Relation) (*core.Relation, error) { return apply(rels[0], rels[1]) }}
}

// lowerLS translates a lifespan-valued expression into a plan
// parameter: a literal becomes its slot, a set operation its operands,
// combined at bind; a WHEN sub-query becomes a sub-plan, recording its
// relation dependencies on the plan, that every execution runs against
// its own pin.
func lowerLS(e *hql.LSExpr, lc *lowerCtx) (*lsExpr, error) {
	switch {
	case e.Literal != "":
		return &lsExpr{slot: e.Slot}, nil
	case e.When != nil:
		n, err := lower(e.When, lc)
		return &lsExpr{when: &whenNode{child: n}}, err
	}
	switch e.Op {
	case "UNION", "INTERSECT", "MINUS":
	default:
		return nil, fmt.Errorf("engine: unknown lifespan operator %s", e.Op)
	}
	l, err := lowerLS(e.Left, lc)
	if err != nil {
		return nil, err
	}
	r, err := lowerLS(e.Right, lc)
	if err != nil {
		return nil, err
	}
	return &lsExpr{op: e.Op, l: l, r: r}, nil
}
