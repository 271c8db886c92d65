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
// snapshot), the relations it depends on — the plan cache's validity
// fence — and the statistics the planner consulted, for EXPLAIN. A plan
// holds no tuples, index objects or evaluated lifespans, and reads every
// literal from its slot, so a write to a relation it reads does not
// outdate it, and every text of its shape runs on it with its own
// parameters. Its choices are costed with the literals of the text that
// missed, and serve every later text of its shape.
type Plan struct {
	root  node
	kind  planKind
	at    int // SNAPSHOT time slot
	deps  []planDep
	notes []string
}

// planDep is one relation the plan depends on — resolved from the
// environment during lowering, lifespan sub-plans included — with the
// cardinality the planner costed it at. A cached plan is reusable
// while every dep still resolves to the same relation (schemes are
// immutable per relation) and none has outgrown its costing.
type planDep struct {
	name string
	rel  *core.Relation
	card int
}

// staleGrowth bounds how stale a cost-chosen shape (a join
// orientation, a too-small-to-index short-circuit) can get: a cached
// plan is replanned once a dependency holds more than staleGrowth
// times the tuples it was costed with.
const staleGrowth = 2

type planKind uint8

const (
	planRelation planKind = iota
	planWhen
	planSnapshot
)

// lowerCtx threads the environment and the parameters being costed
// with through lowering, while collecting the plan's relation
// dependencies and the statistics notes EXPLAIN reports.
type lowerCtx struct {
	env    hql.Env
	params []param
	deps   map[string]planDep
	notes  map[string]string
}

// scan records that the plan depends on relation r (resolved as name)
// and returns its leaf; repeated references share one costing.
func (lc *lowerCtx) scan(name string, r *core.Relation) *scanNode {
	d, ok := lc.deps[name]
	if !ok {
		d = planDep{name: name, rel: r, card: r.Cardinality()}
		lc.deps[name] = d
	}
	return &scanNode{name: name, rel: r, card: d.card}
}

// relStats resolves and records the statistics object of a base
// relation for costing.
func (lc *lowerCtx) relStats(name string, r *core.Relation) RelStats {
	s := Indexes(r).Stats()
	lc.notes[name] = fmt.Sprintf("%s: %s", name, s)
	return s
}

// attrStats resolves and records per-attribute statistics of a base
// relation for costing, building the attribute's hash index if needed.
func (lc *lowerCtx) attrStats(name string, r *core.Relation, attr string) AttrStats {
	return lc.noteAttr(name, attr, Indexes(r).AttrStatsFor(attr))
}

// attrStatsCheap resolves per-attribute statistics without paying an
// O(n) index build the plan would not otherwise make: a
// single-attribute key synthesizes exact statistics from the
// canonical-key map the relation already maintains (keys are constant,
// everywhere defined and unique); other attributes answer only from an
// already-built index, unless willBuild says the plan is about to
// build it anyway (a required-equality probe on a base scan).
func (lc *lowerCtx) attrStatsCheap(name string, r *core.Relation, attr string, willBuild bool) (AttrStats, bool) {
	if key := r.Scheme().Key; len(key) == 1 && key[0] == attr {
		n := r.Cardinality()
		return lc.noteAttr(name, attr, AttrStats{Rows: n, Distinct: n}), true
	}
	if willBuild {
		return lc.attrStats(name, r, attr), true
	}
	if as, ok := Indexes(r).AttrStatsIfBuilt(attr); ok {
		return lc.noteAttr(name, attr, as), true
	}
	return AttrStats{}, false
}

// noteAttr records an attribute-statistics line for EXPLAIN.
func (lc *lowerCtx) noteAttr(name, attr string, as AttrStats) AttrStats {
	key := name + "." + attr
	lc.notes[key] = fmt.Sprintf("%s: %s", key, as)
	return as
}

func (lc *lowerCtx) depList() []planDep {
	out := make([]planDep, 0, len(lc.deps))
	for _, d := range lc.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (lc *lowerCtx) noteList() []string {
	keys := make([]string, 0, len(lc.notes))
	for k := range lc.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = lc.notes[k]
	}
	return out
}

// PlanQuery lowers a parsed HQL expression into a physical plan for
// its shape, costed with its own literals. An error means the planner
// refuses the expression: an unknown relation or operator, a literal
// that does not decode, or an operator its operands' schemes refuse.
func PlanQuery(e hql.Expr, env hql.Env) (*Plan, error) {
	ps, err := astParams(e)
	if err != nil {
		return nil, err
	}
	return planQuery(e, env, ps)
}

// planQuery lowers e for its shape, costed with ps — the parameters
// its own literals bind, indexed by the slots the parser numbered.
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
	lc := &lowerCtx{env: env, params: ps, deps: make(map[string]planDep), notes: make(map[string]string)}
	var err error
	if p.root, err = lower(src, lc); err != nil {
		return nil, err
	}
	p.deps = lc.depList()
	p.notes = lc.noteList()
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
// same relations, none grown past staleGrowth times its costing.
func (p *Plan) valid(env hql.Env) bool {
	for _, d := range p.deps {
		r, ok := env.Get(d.name)
		if !ok || r != d.rel || r.Cardinality() > staleGrowth*d.card {
			return false
		}
	}
	return true
}

// render is the skeleton EXPLAIN and EXPLAIN ANALYZE share: the
// result-sort header, then the operator tree depth-first, one node per
// line — described against pin s, with its cost estimate, and whatever
// actual (if non-nil) appends for it.
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
		c := n.estimate()
		fmt.Fprintf(b, "%s%s  [rows≈%.0f cost≈%.0f]", strings.Repeat("  ", depth), n.describe(s), c.rows, c.work)
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

// explain renders the physical plan against pin s, followed by the
// statistics the planner consulted.
func (p *Plan) explain(s *Snapshot) string {
	var b strings.Builder
	p.render(&b, s, nil)
	if len(p.notes) > 0 {
		b.WriteString("statistics:\n")
		for _, n := range p.notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// lower translates a relation-valued expression into a plan node,
// choosing index-backed operators by cost where they apply and wrapping
// the naive algebra otherwise.
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

// lowerTimeslice plans a static TIME-SLICE: the interval index over a
// base relation big enough for one to pay (log n + k < n needs n > 2),
// a per-tuple restrict over any other input. A static slice of a static
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
	if sc, ok := child.(*scanNode); ok && sc.card-int(logN(sc.card))-1 > 0 {
		k := float64(sc.card)
		if at.static() {
			k *= timesliceSelectivity(lc.relStats(sc.name, sc.rel), at.value(lc.params))
		}
		return &indexTimeSliceNode{name: sc.name, rel: sc.rel, at: at,
			est: cost{rows: k, work: logN(sc.card) + k}}
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
// comparators, constant kinds — never a constant's value; the estimate
// still reads a static DURING window, so a choice above it can move
// with the window.
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
	// Selectivity: statistics-derived for base relations, comparator
	// defaults for derived inputs whose distribution the catalog cannot
	// see. Statistics come only from indexes the query pays for anyway —
	// the key map, an already-built index, or the index an index-select
	// will probe for its required equality.
	var statsFor func(attr string) (AttrStats, bool)
	if rel, rname, ok := baseRel(child); ok {
		statsFor = func(attr string) (AttrStats, bool) {
			return lc.attrStatsCheap(rname, rel, attr, eq != nil && attr == eq.Attr)
		}
	}
	sel := condSelectivity(n.Cond, statsFor)
	if !isScan || forAll || (eq == nil && rng == nil && during == allTime) {
		return &filterNode{child: child, cond: n.Cond, when: n.When, forAll: forAll, during: during, sel: sel}, nil
	}
	// Candidates: the equality's matches, the tuples overlapping a
	// static DURING, whichever the statistics say is fewer. A range
	// alone has only a comparator default, so the plan prices it as the
	// filter it falls back to.
	isel := &indexSelectNode{name: sc.name, rel: sc.rel, cond: n.Cond, when: n.When, during: during, eq: eq, rng: rng}
	k := float64(sc.card)
	if eq == nil && during == allTime {
		isel.est = cost{rows: k * sel, work: 2 * k}
		return isel, nil
	}
	if eq != nil {
		as, _ := statsFor(eq.Attr)
		k = minf(k, as.EqMatches())
	}
	if during.static() && during != allTime {
		k = minf(k, float64(sc.card)*timesliceSelectivity(lc.relStats(sc.name, sc.rel), during.value(lc.params)))
	}
	isel.est = cost{rows: k, work: k + 1}
	return isel, nil
}

// attrKind is the value kind of attribute a's domain in s.
func attrKind(s *schema.Scheme, a string) value.Kind {
	at, _ := s.Attr(a)
	return at.Domain.Kind
}

// baseRel resolves a plan node to the base relation its tuples derive
// from, walking the tuple-preserving unary chain (time-slices, filters,
// projections keep the base's value distribution close enough for
// estimation).
func baseRel(n node) (*core.Relation, string, bool) {
	switch x := n.(type) {
	case *scanNode:
		return x.rel, x.name, true
	case *indexTimeSliceNode:
		return x.rel, x.name, true
	case *indexSelectNode:
		return x.rel, x.name, true
	case *timeSliceNode:
		return baseRel(x.child)
	case *filterNode:
		return baseRel(x.child)
	case *projectNode:
		return baseRel(x.child)
	}
	return nil, "", false
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
// over planned children. Output estimates use the algebraic bounds of
// the set operators and statistics-derived join selectivities in place
// of fixed guesses.
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
	le, re := left.estimate(), right.estimate()
	est := cost{rows: le.rows + re.rows, work: le.work + re.work + le.rows + re.rows}
	pairs := cost{rows: le.rows * re.rows * defaultCmpSel, work: le.work + re.work + le.rows*re.rows}
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
		// An intersection is bounded by its smaller operand, not the sum
		// — pricing it as l+r mis-ranked index joins against it.
		est.rows = minf(le.rows, re.rows)
		apply = core.Intersect
		if merge {
			apply = core.IntersectMerge
		}
	case "MINUS", "MINUSMERGE":
		s, err = schema.DiffScheme(ls, rs, merge)
		// A difference returns at most its left operand.
		est.rows = le.rows
		apply = core.Diff
		if merge {
			apply = core.DiffMerge
		}
	case "TIMES":
		s, err = schema.ProductScheme(ls, rs)
		apply = core.Product
		est = cost{rows: le.rows * re.rows, work: pairs.work}
	case "JOIN":
		if s, err = schema.JoinScheme(ls, rs, n.AttrA, n.AttrB); err == nil && n.Theta == value.EQ {
			return lowerEquiJoin(n, left, right, s, lc), nil
		}
		th := n.Theta
		name = fmt.Sprintf("theta-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoin(l, r, n.AttrA, th, n.AttrB)
		}
		est = pairs
	case "OUTERJOIN":
		s, err = schema.JoinScheme(ls, rs, n.AttrA, n.AttrB)
		th := n.Theta
		name = fmt.Sprintf("outer-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoinOuter(l, r, n.AttrA, th, n.AttrB)
		}
		est = pairs
		if th == value.EQ && err == nil {
			est.rows = le.rows * re.rows * equiJoinSelectivity(n, left, right, lc)
		}
	case "NATJOIN":
		s, err = schema.NaturalJoinScheme(ls, rs)
		name = "natural-join"
		apply = core.NaturalJoin
		// Natural joins here share key attributes, so output is bounded
		// by key containment: about the larger operand, not half the
		// cross product.
		est = cost{rows: maxf(le.rows, re.rows), work: pairs.work}
	case "TIMEJOIN":
		s, err = schema.TimeJoinScheme(ls, rs, n.AttrA)
		name = "time-join @" + n.AttrA
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.TimeJoin(l, r, n.AttrA)
		}
		est = pairs
	default:
		return nil, fmt.Errorf("engine: unknown operator %s", n.Op)
	}
	if err != nil {
		return nil, err
	}
	return naive2(name, left, right, s, est, apply), nil
}

// equiJoinSelectivity estimates the fraction of the cross product an
// A = B equijoin keeps, using the classic containment assumption
// 1/max(distinct(A), distinct(B)) when either side's statistics are
// cheaply known (key maps or already-built indexes — estimation never
// forces an index build), and the comparator default otherwise.
func equiJoinSelectivity(n *hql.BinaryExpr, left, right node, lc *lowerCtx) float64 {
	d := 0.0
	if rel, name, ok := baseRel(left); ok {
		if as, ok := lc.attrStatsCheap(name, rel, n.AttrA, false); ok {
			d = maxf(d, float64(as.Distinct))
		}
	}
	if rel, name, ok := baseRel(right); ok {
		if as, ok := lc.attrStatsCheap(name, rel, n.AttrB, false); ok {
			d = maxf(d, float64(as.Distinct))
		}
	}
	if d < 1 {
		return defaultEqSel
	}
	return 1 / d
}

// lowerEquiJoin prices three physical forms of r1 JOIN r2 [A = B] — the
// naive nested loop, streaming the left side against an index on the
// right, and the mirror image — and picks the cheapest eligible one.
// rs is the join's result scheme.
func lowerEquiJoin(n *hql.BinaryExpr, left, right node, rs *schema.Scheme, lc *lowerCtx) node {
	le, re := left.estimate(), right.estimate()
	sel := equiJoinSelectivity(n, left, right, lc)
	best := node(naive2(fmt.Sprintf("equi-join %s=%s", n.AttrA, n.AttrB), left, right, rs,
		cost{rows: le.rows * re.rows * sel, work: le.work + re.work + le.rows*re.rows},
		func(l, r *core.Relation) (*core.Relation, error) { return core.EquiJoin(l, r, n.AttrA, n.AttrB) }))
	if j := indexJoin(left, n.AttrA, right, n.AttrB, rs, true); j != nil && j.estimate().work < best.estimate().work {
		best = j
	}
	if j := indexJoin(right, n.AttrB, left, n.AttrA, rs, false); j != nil && j.estimate().work < best.estimate().work {
		best = j
	}
	return best
}

// indexJoin builds an index-lookup-join candidate with stream as the
// streamed side and idx as the indexed side of the join on scheme
// joined, or nil when the shape is ineligible (non-base indexed side,
// mismatched value kinds).
func indexJoin(stream node, streamAttr string, idx node, idxAttr string, joined *schema.Scheme, leftIsStream bool) *indexJoinNode {
	sc, ok := idx.(*scanNode)
	if !ok {
		return nil
	}
	ss, is := stream.scheme(), sc.rel.Scheme()
	sa, _ := ss.Attr(streamAttr)
	ia, _ := is.Attr(idxAttr)
	if sa.Domain.Kind != ia.Domain.Kind {
		return nil
	}
	ls, rs, la, ra := ss, is, streamAttr, idxAttr
	if !leftIsStream {
		ls, rs, la, ra = is, ss, idxAttr, streamAttr
	}
	j := &indexJoinNode{stream: stream, streamAttr: streamAttr,
		indexed: sc.rel, indexedName: sc.name, indexedAttr: idxAttr,
		rs: joined, join: core.NewJoiner(joined, ls, rs, la, value.EQ, ra), streamPos: ss.Index(streamAttr),
		leftIsStream: leftIsStream, avgBucket: 1}
	if key := is.Key; len(key) != 1 || key[0] != idxAttr {
		// Not the key, whose canonical-key map the relation already
		// maintains: price the attribute index. Building it here is an
		// O(n) scan, but the relation's index set keeps it per attribute
		// and maintains it incrementally: every later query — either join
		// orientation, or an index-select on the same attribute — reuses
		// it, so the build amortizes like any index warm-up even when
		// this particular candidate loses the costing.
		j.avgBucket = Indexes(sc.rel).Attr(idxAttr).AvgBucket()
	}
	return j
}

// naive1 wraps a unary naive operator over a planned child; rs is its
// result scheme.
func naive1(label string, child node, rs *schema.Scheme, apply func(*core.Relation) (*core.Relation, error)) *opNode {
	return &opNode{label: label, kids: []node{child}, rs: rs, est: perTuple(child),
		apply: func(rels []*core.Relation) (*core.Relation, error) { return apply(rels[0]) }}
}

// naive2 wraps a binary naive operator over planned children; rs is its
// result scheme.
func naive2(label string, left, right node, rs *schema.Scheme, est cost, apply func(l, r *core.Relation) (*core.Relation, error)) *opNode {
	return &opNode{label: label, kids: []node{left, right}, rs: rs, est: est,
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
