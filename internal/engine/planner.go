package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Plan is a compiled query: a physical operator tree plus the result
// sort of the original expression (relation, lifespan or snapshot),
// the (relation, version) pairs the plan was compiled against — the
// plan cache's validity fence — and the statistics the planner
// consulted, for EXPLAIN.
type Plan struct {
	root  node
	kind  planKind
	at    chronon.Time // SNAPSHOT time
	text  string
	deps  []planDep
	notes []string
}

// planDep pins one relation the plan depends on — resolved from the
// environment during lowering (including WHEN sub-queries evaluated at
// plan time) — at the version the plan saw. A cached plan is reusable
// only while every dep still resolves to the same relation at the same
// version.
type planDep struct {
	name    string
	rel     *core.Relation
	version uint64
}

type planKind uint8

const (
	planRelation planKind = iota
	planWhen
	planSnapshot
)

// lowerCtx threads the environment through lowering while collecting
// the plan's relation dependencies and the statistics notes EXPLAIN
// reports.
type lowerCtx struct {
	env   hql.Env
	deps  map[string]planDep
	notes map[string]string
}

func newLowerCtx(env hql.Env) *lowerCtx {
	return &lowerCtx{env: env, deps: make(map[string]planDep), notes: make(map[string]string)}
}

// dep records that the plan depends on relation r (resolved as name) at
// its current version.
func (lc *lowerCtx) dep(name string, r *core.Relation) {
	if _, ok := lc.deps[name]; !ok {
		lc.deps[name] = planDep{name: name, rel: r, version: r.Version()}
	}
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

// PlanQuery lowers a parsed HQL expression into a physical plan. An
// error means the planner cannot (or should not) handle the expression;
// callers fall back to the naive evaluator, which either runs it or
// reports the definitive semantic error.
func PlanQuery(e hql.Expr, env hql.Env) (*Plan, error) {
	p := &Plan{text: e.String()}
	var src hql.Expr
	switch n := e.(type) {
	case *hql.WhenExpr:
		p.kind, src = planWhen, n.Source
	case *hql.SnapshotExpr:
		p.kind, src = planSnapshot, n.Source
		p.at = chronon.Time(n.At)
	default:
		p.kind, src = planRelation, e
	}
	lc := newLowerCtx(env)
	root, err := lower(src, lc)
	if err != nil {
		return nil, err
	}
	p.root = root
	p.deps = lc.depList()
	p.notes = lc.noteList()
	return p, nil
}

// run executes the plan against the given pinned snapshot and wraps
// the result in the query's sort. It is deliberately unexported: a
// Session's query methods are the only execution paths, and each pins
// a snapshot verified against the plan's compile-time versions before
// running — there is no best-effort execute-without-verify path. sp
// receives the execute mark when the operator tree's root batch
// returns and the materialize mark after the sink has built the
// result relation (and, for WHEN and SNAPSHOT queries, derived the
// result from it).
func (p *Plan) run(s *Snapshot, sp *obs.Span) (hql.Result, error) {
	b, err := s.run(p.root)
	sp.Mark(obs.StageExecute)
	if err != nil {
		return hql.Result{}, err
	}
	res, err := p.result(b)
	sp.Mark(obs.StageMaterialize)
	return res, err
}

// result materializes the root batch and wraps it in the query's sort.
func (p *Plan) result(b batch) (hql.Result, error) {
	r, err := b.relation()
	if err != nil {
		return hql.Result{}, err
	}
	switch p.kind {
	case planWhen:
		ls := core.When(r)
		return hql.Result{Lifespan: &ls}, nil
	case planSnapshot:
		snap, err := core.Snapshot(r, p.at)
		if err != nil {
			return hql.Result{}, err
		}
		return hql.Result{Snapshot: snap}, nil
	default:
		return hql.Result{Relation: r}, nil
	}
}

// valid reports whether the plan's relation dependencies still resolve
// to the same relations at the versions the plan was compiled against.
func (p *Plan) valid(env hql.Env) bool {
	for _, d := range p.deps {
		r, ok := env.Get(d.name)
		if !ok || r != d.rel || r.Version() != d.version {
			return false
		}
	}
	return true
}

// Explain renders the physical plan — one operator per line with cost
// estimates — followed by the statistics the planner consulted.
func (p *Plan) Explain() string {
	var b strings.Builder
	switch p.kind {
	case planWhen:
		b.WriteString("when (lifespan of result)\n")
	case planSnapshot:
		fmt.Fprintf(&b, "snapshot at %s\n", p.at)
	}
	depth := 0
	if p.kind != planRelation {
		depth = 1
	}
	explain(p.root, &b, depth)
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
		lc.dep(n.Name, r)
		return &scanNode{name: n.Name, rel: r}, nil

	case *hql.TimesliceExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		if n.By != "" {
			return naive1("dynamic-time-slice by "+n.By, child, func(r *core.Relation) (*core.Relation, error) {
				return core.TimesliceDynamic(r, n.By)
			}), nil
		}
		L, err := evalLS(n.At, lc)
		if err != nil {
			return nil, err
		}
		return maybeParallel(lowerTimeslice(child, L, lc), lc), nil

	case *hql.SelectExpr:
		return lowerSelect(n, lc)

	case *hql.ProjectExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		if cs := child.scheme(); cs != nil && keyKept(cs, n.Attrs) {
			rs, err := schema.ProjectScheme(cs, n.Attrs, cs.Name)
			if err == nil {
				return &projectNode{child: child, attrs: n.Attrs, rs: rs}, nil
			}
		}
		return naive1("project "+strings.Join(n.Attrs, ", "), child, func(r *core.Relation) (*core.Relation, error) {
			return core.Project(r, n.Attrs...)
		}), nil

	case *hql.RenameExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		return naive1("rename as "+n.Prefix, child, func(r *core.Relation) (*core.Relation, error) {
			return r.Rename(n.Prefix)
		}), nil

	case *hql.MaterializeExpr:
		child, err := lower(n.Source, lc)
		if err != nil {
			return nil, err
		}
		return naive1("materialize", child, core.Materialize), nil

	case *hql.BinaryExpr:
		return lowerBinary(n, lc)

	default:
		return nil, fmt.Errorf("engine: cannot plan %T", e)
	}
}

// lowerTimeslice picks between the interval index, a per-tuple restrict,
// and the naive operator for a static TIME-SLICE.
func lowerTimeslice(child node, L lifespan.Lifespan, lc *lowerCtx) node {
	if sc, ok := child.(*scanNode); ok {
		// One tree traversal prices the index and, only if it wins
		// (log n + k < n), materializes the candidate set.
		n := sc.rel.Cardinality()
		kmax := n - int(logN(n)) - 1
		if kmax <= 0 {
			// Relations of a couple of tuples can never beat a straight
			// restrict (the budget is already negative); don't traverse
			// an interval tree just to discard it.
			return &timeSliceNode{child: child, L: L, sel: 1}
		}
		if cand, ok := Indexes(sc.rel).Interval().OverlappingWithin(L, kmax); ok {
			return &indexTimeSliceNode{name: sc.name, rel: sc.rel, L: L, cand: cand}
		}
		// Index touches nearly everything; a plain scan restricts with
		// less overhead. The interval geometry still improves the output
		// estimate over the pessimistic "every tuple survives".
		return &timeSliceNode{child: child, L: L,
			sel: timesliceSelectivity(lc.relStats(sc.name, sc.rel), L)}
	}
	if child.scheme() != nil {
		return &timeSliceNode{child: child, L: L, sel: 1}
	}
	return naive1("time-slice at "+L.String(), child, func(r *core.Relation) (*core.Relation, error) {
		return core.TimesliceStatic(r, L)
	})
}

// lowerSelect plans SELECT IF/WHEN: index-pruned candidates where a
// required equality conjunct or a DURING lifespan permits, a per-tuple
// filter otherwise, the naive operator when the child's scheme is only
// known at execution time.
func lowerSelect(n *hql.SelectExpr, lc *lowerCtx) (node, error) {
	child, err := lower(n.Source, lc)
	if err != nil {
		return nil, err
	}
	cond, err := hql.BuildCond(n.Cond)
	if err != nil {
		return nil, err
	}
	L := lifespan.All()
	if n.During != nil {
		L, err = evalLS(n.During, lc)
		if err != nil {
			return nil, err
		}
	}
	cs := child.scheme()
	if cs == nil {
		return naiveSelect(n, cond, L, child), nil
	}
	if err := core.CondCheck(cond, cs); err != nil {
		return nil, err // surface via the naive evaluator's error path
	}
	sc, isScan := child.(*scanNode)
	// Selectivity: statistics-derived for base relations, comparator
	// defaults for derived inputs whose distribution the catalog cannot
	// see. Statistics come only from indexes the plan pays for anyway —
	// the key map, an already-built index, or the required-equality
	// probe index the index-select candidate is about to build.
	reqAttr, reqVal, hasReq := requiredEQ(n.Cond)
	var statsFor func(attr string) (AttrStats, bool)
	if rel, rname, ok := baseRel(child); ok {
		statsFor = func(attr string) (AttrStats, bool) {
			if !rel.Scheme().HasAttr(attr) {
				return AttrStats{}, false
			}
			// ∀ selects never prune candidates, so they build no probe
			// index either.
			willBuild := isScan && !(!n.When && n.ForAll) && hasReq && attr == reqAttr
			if willBuild {
				a, has := cs.Attr(attr)
				willBuild = has && a.Domain.Kind == reqVal.Kind()
			}
			return lc.attrStatsCheap(rname, rel, attr, willBuild)
		}
	}
	sel := condSelectivity(n.Cond, statsFor)
	filter := &filterNode{child: child, cond: cond, when: n.When, forAll: !n.When && n.ForAll, L: L, sel: sel}
	if !isScan || filter.forAll {
		// ∀ quantification keeps tuples whose scope is empty (vacuous
		// truth), so no candidate pruning is sound for it.
		return maybeParallel(filter, lc), nil
	}
	best := node(filter)
	// Candidate pruning via a required equality conjunct: key hash index
	// when the attribute is the relation's key, attribute index otherwise.
	if hasReq {
		if a, has := cs.Attr(reqAttr); has && a.Domain.Kind == reqVal.Kind() {
			cand, prune := eqCandidates(sc, reqAttr, reqVal)
			isel := &indexSelectNode{name: sc.name, rel: sc.rel, cond: cond, when: n.When, L: L, cand: cand, prune: prune}
			if isel.estimate().work < best.estimate().work {
				best = isel
			}
		}
	}
	// Candidate pruning via the lifespan interval index when DURING
	// bounds the scope: tuples missing L have empty scope and vanish.
	// One traversal; candidates materialize only under the current best
	// cost (index-select work is k+1, so the budget is best.work - 2).
	if n.During != nil {
		kmax := int(best.estimate().work) - 2
		if cand, ok := Indexes(sc.rel).Interval().OverlappingWithin(L, kmax); ok {
			best = &indexSelectNode{name: sc.name, rel: sc.rel, cond: cond, when: n.When, L: L,
				cand:  cand,
				prune: fmt.Sprintf("interval-index during %s", L)}
		}
	}
	return maybeParallel(best, lc), nil
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
	case *parallelNode:
		return baseRel(x.child)
	}
	return nil, "", false
}

// eqCandidates resolves the candidate set for attr = v over a base
// relation: the byKey hash map when attr is the single-attribute key,
// the attribute hash index (constant bucket plus varying overflow)
// otherwise.
func eqCandidates(sc *scanNode, attr string, v value.Value) (cand []*core.Tuple, prune string) {
	key := sc.rel.Scheme().Key
	if len(key) == 1 && key[0] == attr {
		//lint:allow pindiscipline live probe feeds candidates only; Snapshot.resolve maps them back to the pinned version
		if t, ok := sc.rel.Lookup(v.String()); ok {
			cand = []*core.Tuple{t}
		}
		return cand, fmt.Sprintf("key-index %s.%s", sc.name, attr)
	}
	ix := Indexes(sc.rel).Attr(attr)
	cand = append(append(cand, ix.Probe(v)...), ix.Varying()...)
	return cand, ix.String()
}

// requiredEQ finds an `attr = constant` atom that is a required conjunct
// of the condition: the condition itself, or a conjunct of a (possibly
// nested) AND. Tuples failing such an atom cannot satisfy the whole
// condition, which is what makes index pruning on it sound.
func requiredEQ(c hql.CondExpr) (string, value.Value, bool) {
	if c.Pred != nil {
		p := c.Pred
		if p.Theta == value.EQ && p.OtherAttr == "" && p.Const.IsValid() {
			return p.Attr, p.Const, true
		}
		return "", value.Value{}, false
	}
	if c.Op == "AND" {
		for _, k := range c.Kids {
			if a, v, ok := requiredEQ(k); ok {
				return a, v, true
			}
		}
	}
	return "", value.Value{}, false
}

// naiveSelect wraps the naive SELECT operators over a materialized child.
func naiveSelect(n *hql.SelectExpr, cond core.Condition, L lifespan.Lifespan, child node) node {
	name := fmt.Sprintf("select-%s %s", selKind(n.When, !n.When && n.ForAll), cond)
	return naive1(name, child, func(r *core.Relation) (*core.Relation, error) {
		if n.When {
			return core.SelectWhenCond(r, cond, L)
		}
		q := core.Exists
		if n.ForAll {
			q = core.ForAll
		}
		return core.SelectIfCond(r, cond, q, L)
	})
}

// lowerBinary plans the set operators, product and the join family. The
// equijoin gets the index treatment; everything else wraps the naive
// operator over planned children. Output estimates use the algebraic
// bounds of the set operators and statistics-derived join selectivities
// in place of fixed guesses.
func lowerBinary(n *hql.BinaryExpr, lc *lowerCtx) (node, error) {
	left, err := lower(n.Left, lc)
	if err != nil {
		return nil, err
	}
	right, err := lower(n.Right, lc)
	if err != nil {
		return nil, err
	}
	if n.Op == "JOIN" && n.Theta == value.EQ {
		return maybeParallel(lowerEquiJoin(n, left, right, lc), lc), nil
	}
	le, re := left.estimate(), right.estimate()
	est := cost{rows: le.rows + re.rows, work: le.work + re.work + le.rows + re.rows}
	var apply func(l, r *core.Relation) (*core.Relation, error)
	name := strings.ToLower(n.Op)
	switch n.Op {
	case "UNION":
		apply = core.Union
	case "UNIONMERGE":
		apply = core.UnionMerge
	case "INTERSECT", "INTERSECTMERGE":
		// An intersection is bounded by its smaller operand, not the sum
		// — pricing it as l+r mis-ranked index joins against it.
		est.rows = minf(le.rows, re.rows)
		apply = core.Intersect
		if n.Op == "INTERSECTMERGE" {
			apply = core.IntersectMerge
		}
	case "MINUS", "MINUSMERGE":
		// A difference returns at most its left operand.
		est.rows = le.rows
		apply = core.Diff
		if n.Op == "MINUSMERGE" {
			apply = core.DiffMerge
		}
	case "TIMES":
		apply = core.Product
		est = cost{rows: le.rows * re.rows, work: le.work + re.work + le.rows*re.rows}
	case "JOIN":
		th := n.Theta
		name = fmt.Sprintf("theta-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoin(l, r, n.AttrA, th, n.AttrB)
		}
		est = cost{rows: le.rows * re.rows * defaultCmpSel, work: le.work + re.work + le.rows*re.rows}
	case "OUTERJOIN":
		th := n.Theta
		name = fmt.Sprintf("outer-join %s %s %s", n.AttrA, th, n.AttrB)
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.ThetaJoinOuter(l, r, n.AttrA, th, n.AttrB)
		}
		sel := defaultCmpSel
		if th == value.EQ {
			sel = equiJoinSelectivity(n, left, right, lc)
		}
		est = cost{rows: le.rows * re.rows * sel, work: le.work + re.work + le.rows*re.rows}
	case "NATJOIN":
		name = "natural-join"
		apply = core.NaturalJoin
		// Natural joins here share key attributes, so output is bounded
		// by key containment: about the larger operand, not half the
		// cross product.
		est = cost{rows: maxf(le.rows, re.rows), work: le.work + re.work + le.rows*re.rows}
	case "TIMEJOIN":
		name = "time-join @" + n.AttrA
		apply = func(l, r *core.Relation) (*core.Relation, error) {
			return core.TimeJoin(l, r, n.AttrA)
		}
		est = cost{rows: le.rows * re.rows * defaultCmpSel, work: le.work + re.work + le.rows*re.rows}
	default:
		return nil, fmt.Errorf("engine: unknown operator %s", n.Op)
	}
	return &opNode{name: name, kids: []node{left, right}, est: est,
		apply: func(rels []*core.Relation) (*core.Relation, error) { return apply(rels[0], rels[1]) }}, nil
}

// equiJoinSelectivity estimates the fraction of the cross product an
// A = B equijoin keeps, using the classic containment assumption
// 1/max(distinct(A), distinct(B)) when either side's statistics are
// cheaply known (key maps or already-built indexes — estimation never
// forces an index build), and the comparator default otherwise.
func equiJoinSelectivity(n *hql.BinaryExpr, left, right node, lc *lowerCtx) float64 {
	d := 0.0
	if rel, name, ok := baseRel(left); ok && rel.Scheme().HasAttr(n.AttrA) {
		if as, ok := lc.attrStatsCheap(name, rel, n.AttrA, false); ok {
			d = maxf(d, float64(as.Distinct))
		}
	}
	if rel, name, ok := baseRel(right); ok && rel.Scheme().HasAttr(n.AttrB) {
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
func lowerEquiJoin(n *hql.BinaryExpr, left, right node, lc *lowerCtx) node {
	le, re := left.estimate(), right.estimate()
	sel := equiJoinSelectivity(n, left, right, lc)
	best := node(&opNode{
		name: fmt.Sprintf("equi-join %s=%s", n.AttrA, n.AttrB),
		kids: []node{left, right},
		est:  cost{rows: le.rows * re.rows * sel, work: le.work + re.work + le.rows*re.rows},
		apply: func(rels []*core.Relation) (*core.Relation, error) {
			return core.EquiJoin(rels[0], rels[1], n.AttrA, n.AttrB)
		}})
	if j := indexJoin(left, n.AttrA, right, n.AttrB, true); j != nil && j.estimate().work < best.estimate().work {
		best = j
	}
	if j := indexJoin(right, n.AttrB, left, n.AttrA, false); j != nil && j.estimate().work < best.estimate().work {
		best = j
	}
	return best
}

// indexJoin builds an index-lookup-join candidate with stream as the
// streamed side and idx as the indexed side, or nil when the shape is
// ineligible (non-base indexed side, unknown stream scheme, shared
// attributes, mismatched value kinds).
func indexJoin(stream node, streamAttr string, idx node, idxAttr string, leftIsStream bool) *indexJoinNode {
	sc, ok := idx.(*scanNode)
	if !ok {
		return nil
	}
	ss := stream.scheme()
	is := sc.rel.Scheme()
	if ss == nil || !ss.DisjointAttrs(is) {
		return nil
	}
	sa, ok1 := ss.Attr(streamAttr)
	ia, ok2 := is.Attr(idxAttr)
	if !ok1 || !ok2 || sa.Domain.Kind != ia.Domain.Kind {
		return nil
	}
	ls, rs := ss, is
	if !leftIsStream {
		ls, rs = is, ss
	}
	joined, err := schema.ConcatScheme(ls, rs, ls.Name+"⋈"+rs.Name)
	if err != nil {
		return nil
	}
	j := &indexJoinNode{stream: stream, streamAttr: streamAttr,
		indexed: sc.rel, indexedName: sc.name, indexedAttr: idxAttr,
		rs: joined, leftIsStream: leftIsStream}
	key := is.Key
	if len(key) == 1 && key[0] == idxAttr {
		// The canonical-key map the relation already maintains is the
		// hash index; no separate structure needed. Execution probes it
		// through the query's snapshot, bounded by the pinned prefix.
		j.keyProbe = true
		j.avgBucket = 1
		j.probeDesc = fmt.Sprintf("key-index %s.%s (%d keys)", sc.name, idxAttr, sc.rel.Cardinality())
		return j
	}
	// Building the attribute index here is an O(n) scan, but the catalog
	// caches it per (relation, attribute) and maintains it incrementally:
	// every later query — either join orientation, or an index-select on
	// the same attribute — reuses it, so the build amortizes like any
	// index warm-up even when this particular candidate loses the costing.
	j.aix = Indexes(sc.rel).Attr(idxAttr)
	j.avgBucket = j.aix.AvgBucket()
	j.probeDesc = j.aix.String()
	return j
}

// naive1 wraps a unary naive operator over a planned child.
func naive1(name string, child node, apply func(*core.Relation) (*core.Relation, error)) *opNode {
	c := child.estimate()
	return &opNode{name: name, kids: []node{child},
		est:   cost{rows: c.rows, work: c.work + c.rows},
		apply: func(rels []*core.Relation) (*core.Relation, error) { return apply(rels[0]) }}
}

// keyKept reports whether a projection onto attrs retains every key
// attribute of s — the precondition for tuple-at-a-time projection.
func keyKept(s *schema.Scheme, attrs []string) bool {
	have := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		have[a] = true
	}
	for _, k := range s.Key {
		if !have[k] {
			return false
		}
	}
	return true
}

// evalLS evaluates a lifespan-valued expression at plan time, routing
// WHEN sub-queries through the planner so they benefit from indexes too
// (and recording their relation dependencies on the plan).
func evalLS(e *hql.LSExpr, lc *lowerCtx) (lifespan.Lifespan, error) {
	switch {
	case e.Literal != "":
		return lifespan.Parse(e.Literal)
	case e.When != nil:
		n, err := lower(e.When, lc)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		// Sub-queries run at plan time against live state (the nil
		// snapshot); the resulting lifespan is a plan-time constant,
		// fenced by the plan's (relation, version) deps like every other
		// plan-time probe.
		b, err := (*Snapshot)(nil).run(n)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		r, err := b.relation()
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		return core.When(r), nil
	default:
		l, err := evalLS(e.Left, lc)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		r, err := evalLS(e.Right, lc)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		switch e.Op {
		case "UNION":
			return l.Union(r), nil
		case "INTERSECT":
			return l.Intersect(r), nil
		case "MINUS":
			return l.Minus(r), nil
		}
		return lifespan.Lifespan{}, fmt.Errorf("engine: unknown lifespan operator %s", e.Op)
	}
}
