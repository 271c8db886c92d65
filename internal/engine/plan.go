package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// node is one operator of a physical plan. A plan is a pure shape over
// schemes: operators, relation pointers, parameter slots and sub-plans
// for WHEN-valued lifespans. Everything that depends on data or on a
// literal's value — scans, index probes, lifespan sub-queries, bound
// constants — happens in run, against the query's pinned snapshot and
// its parameters, so one plan executes against one consistent database
// version no matter how many relations it touches or how writers race
// it, and a cached plan stays correct across writes and serves every
// text of its shape.
// Parents, the plan root and the profiler reach a node through
// Snapshot.run, never n.run directly. describe renders the node for
// EXPLAIN against the same kind of pin (probing indexes for candidate
// counts, never running a sub-plan). scheme, never nil, is the node's
// result scheme, derived at lowering from its children's by the
// algebra's rules (internal/schema).
type node interface {
	scheme() *schema.Scheme
	run(s *Snapshot) (batch, error)
	describe(s *Snapshot) string
	children() []node
}

// batch is a node's complete result: a tuple slice on the node's
// scheme and, for a scan's O(1) pinned view and a naive operator's
// output, the relation already built over it. ordered says ts is in
// ascending key order: a scan's (its pinned version's key order, while
// the view keeps insertion order for naive consumers), kept through
// kernels that emit at most one tuple per input, with that input's
// key (see bound).
type batch struct {
	ts      []*core.Tuple
	rel     *core.Relation
	ordered bool
}

// relation is the engine's one materialization sink: the plan root,
// naive operators' inputs and lifespan sub-plans turn a node's batch,
// on its scheme s, into a relation here. A key-ordered batch is
// adopted as it is (core.NewRelationKeyOrdered); any other is sorted by
// key in one pass that allocates nothing per tuple
// (core.NewRelationFromTuples). Kernels keep each input tuple's unique
// constant key (joins concatenate two), so the construction cannot hit
// a duplicate; the sort still verifies.
func (b batch) relation(s *schema.Scheme) (*core.Relation, error) {
	switch {
	case b.rel != nil:
		return b.rel, nil
	case b.ordered:
		return core.NewRelationKeyOrdered(s, b.ts), nil
	}
	return core.NewRelationFromTuples(s, b.ts)
}

// tupleKernel is one operator's per-tuple work: it appends t's results
// (zero, one or several tuples) to out and returns the extended slice.
// Kernels are order-preserving, per-tuple independent and safe for
// concurrent use, which is what lets the same kernel run sequentially
// or over partitions.
type tupleKernel func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error)

// tupleOp is a per-tuple operator — the paper's T_L(r) = { t|L : t ∈ r }
// shape. bind resolves it against one pinned snapshot, once per
// execution on the query goroutine: parameters are bound, lifespan
// parameters evaluated, indexes probed, the child run.
type tupleOp interface {
	node
	bind(s *Snapshot) (bound, error)
}

// bound is a per-tuple operator bound to one execution: its input, its
// kernel, and whether the executor may split them. partition marks an
// input that is a slice of a pinned base relation (a scan or an
// index's candidates), the shapes worth splitting across workers.
// ordered marks a key-ordered input under a kernel that emits at most
// one tuple per input tuple, with that tuple's key — time-slice,
// SELECT, key-keeping PROJECT and RENAME — so the output is key-ordered
// too, partitioned or not.
type bound struct {
	in        []*core.Tuple
	kernel    tupleKernel
	partition bool
	ordered   bool
}

// run executes n — the operator boundary every parent goes through.
// Under EXPLAIN ANALYZE it takes the node's one measurement: wall time
// and rows of the whole batch. Children run inside their parent's
// run, so self time is wall minus the children's wall.
func (s *Snapshot) run(n node) (batch, error) {
	if s.prof == nil {
		return n.run(s)
	}
	st := s.prof.stats(n)
	t0 := time.Now()
	b, err := n.run(s)
	st.wall = time.Since(t0)
	st.rows = int64(len(b.ts))
	return b, err
}

// tuplesFrom runs a child operator and returns its result tuples.
func (s *Snapshot) tuplesFrom(child node) ([]*core.Tuple, error) {
	b, err := s.run(child)
	return b.ts, err
}

// inputFrom binds an order-keeping kernel k to child's result,
// ordered when that result is.
func (s *Snapshot) inputFrom(child node, k tupleKernel) (bound, error) {
	b, err := s.run(child)
	return bound{in: b.ts, kernel: k, ordered: b.ordered}, err
}

// apply is the executor's one loop: kernel k over in, appending to
// out, with the query's cancellation check at every cancelBatch-tuple
// boundary (the first at tuple 0, so every operator checks on entry).
// Sequential operators pass their whole input; parallel workers pass
// one partition at a time.
func (s *Snapshot) apply(k tupleKernel, in, out []*core.Tuple) ([]*core.Tuple, error) {
	for i, t := range in {
		if i%cancelBatch == 0 {
			if err := s.canceled(); err != nil {
				return nil, err
			}
		}
		var err error
		if out, err = k(t, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOp executes a per-tuple operator: bind it to the pin, then run its
// kernel over its input — on the query goroutine, or over partitions
// when the pinned input is a base-relation slice long enough to
// amortize the fan-out (see parallel.go).
func (s *Snapshot) runOp(op tupleOp) (batch, error) {
	b, err := op.bind(s)
	if err != nil {
		return batch{}, err
	}
	var out []*core.Tuple
	if partitioned(b) {
		out, err = s.runPartitions(op, b)
	} else {
		out, err = s.apply(b.kernel, b.in, make([]*core.Tuple, 0, len(b.in)))
	}
	return batch{ts: out, ordered: b.ordered}, err
}

// restrictKernel is TIME-SLICE's per-tuple step: t|L, dropped when
// nothing of t survives.
func restrictKernel(L lifespan.Lifespan) tupleKernel {
	return func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		if nt := t.Restrict(L); nt != nil {
			out = append(out, nt)
		}
		return out, nil
	}
}

// filterKernel is SELECT's per-tuple step: the restricted tuple for
// SELECT-WHEN, the whole tuple or nothing for SELECT-IF. Semantics
// mirror core.SelectIfCond/SelectWhenCond exactly, including vacuous ∀
// over an empty scope.
func filterKernel(c core.Condition, when, forAll bool, L lifespan.Lifespan) tupleKernel {
	return func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		scope := t.Lifespan().Intersect(L)
		holds, err := core.CondWhen(c, t, scope)
		if err != nil {
			return out, err
		}
		if when {
			if nt := t.Restrict(holds); nt != nil {
				out = append(out, nt)
			}
			return out, nil
		}
		keep := !holds.IsEmpty()
		if forAll {
			keep = scope.Minus(holds).IsEmpty()
		}
		if keep {
			out = append(out, t)
		}
		return out, nil
	}
}

// ---------------------------------------------------------------------
// lifespan parameters

// lsExpr is a lifespan-valued plan parameter — the algebra's second
// sort, the L of TIME-SLICE and SELECT … DURING: a literal, read from
// its parameter slot, the WHEN of a sub-plan's result, or a set
// operation over two. Everything is evaluated per execution by
// Snapshot.lifespanOf, against the same pin and parameters as the rest
// of the query.
type lsExpr struct {
	slot int
	when *whenNode
	op   string // UNION, INTERSECT or MINUS over l and r
	l, r *lsExpr
}

// allTime is the lifespan parameter of an operator without one.
var (
	allTime = &lsExpr{}
	allLS   = lifespan.All()
)

// static reports whether e is a function of the parameters alone, with
// no WHEN sub-plan.
func (e *lsExpr) static() bool {
	return e.when == nil && (e.op == "" || e.l.static() && e.r.static())
}

// value evaluates a static e under ps.
func (e *lsExpr) value(ps []param) lifespan.Lifespan {
	switch {
	case e == allTime:
		return allLS
	case e.op != "":
		return lsApply(e.op, e.l.value(ps), e.r.value(ps))
	}
	return ps[e.slot].ls
}

// subplans appends e's WHEN sub-plans to out, left to right — the
// order EXPLAIN prints them in below the operator they parameterise.
func (e *lsExpr) subplans(out []node) []node {
	switch {
	case e.when != nil:
		return append(out, e.when)
	case e.op != "":
		return e.r.subplans(e.l.subplans(out))
	}
	return out
}

// render prints e for EXPLAIN: a static part as the lifespan it binds
// to under ps, a sub-plan as a reference to it.
func (e *lsExpr) render(ps []param) string {
	switch {
	case e.static():
		return e.value(ps).String()
	case e.when != nil:
		return "WHEN(sub-plan)"
	}
	return "(" + e.l.render(ps) + " " + e.op + " " + e.r.render(ps) + ")"
}

// lsApply combines two lifespans under one of lsExpr's operators.
func lsApply(op string, l, r lifespan.Lifespan) lifespan.Lifespan {
	switch op {
	case "UNION":
		return l.Union(r)
	case "INTERSECT":
		return l.Intersect(r)
	}
	return l.Minus(r)
}

// lifespanOf evaluates e against the pin and parameters, running its
// sub-plans.
func (s *Snapshot) lifespanOf(e *lsExpr) (lifespan.Lifespan, error) {
	switch {
	case e.when != nil:
		// WHEN is the union of the result's lifespans: no relation,
		// key or order is needed.
		b, err := s.run(e.when)
		return core.LifespanOf(b.ts), err
	case e.op != "" && !e.static():
		l, err := s.lifespanOf(e.l)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		r, err := s.lifespanOf(e.r)
		if err != nil {
			return lifespan.Lifespan{}, err
		}
		return lsApply(e.op, l, r), nil
	}
	return e.value(s.params), nil
}

// whenNode roots a lifespan sub-plan: lifespanOf takes the WHEN of its
// child's result. It is a node so that the sub-plan shows up — labelled
// — among the children of the operator it parameterises.
type whenNode struct{ child node }

func (n *whenNode) scheme() *schema.Scheme         { return n.child.scheme() }
func (n *whenNode) children() []node               { return []node{n.child} }
func (n *whenNode) run(s *Snapshot) (batch, error) { return s.run(n.child) }
func (n *whenNode) describe(*Snapshot) string      { return "when (lifespan of sub-query)" }

// ---------------------------------------------------------------------
// scan

// scanNode reads every tuple of a base relation — the plan leaf when
// no index applies. Its batch is the pinned version twice over: as a
// frozen O(1) view, so naive operators consuming it read the snapshot,
// not the live relation, and as the version's tuples in key order
// (core.RelVersion.KeyOrdered, sorted once per version), so kernels
// over it keep the order the result is rendered in.
type scanNode struct {
	name string
	rel  *core.Relation
}

func (n *scanNode) scheme() *schema.Scheme { return n.rel.Scheme() }
func (n *scanNode) children() []node       { return nil }
func (n *scanNode) run(s *Snapshot) (batch, error) {
	v, err := s.pinned(n.rel)
	if err != nil {
		return batch{}, err
	}
	ts, err := v.KeyOrdered()
	if err != nil {
		return batch{}, err
	}
	return batch{ts: ts, rel: v.View(), ordered: true}, nil
}
func (n *scanNode) describe(s *Snapshot) string {
	return fmt.Sprintf("scan %s (%d tuples)", n.name, s.card(n.rel))
}

// scanNote is parallelNote for an operator that reads child directly:
// empty unless child is a base scan — the partitionable shape.
func (s *Snapshot) scanNote(child node) string {
	if sc, ok := child.(*scanNode); ok {
		return parallelNote(s.card(sc.rel))
	}
	return ""
}

// ---------------------------------------------------------------------
// time-slice

// indexTimeSliceNode answers a static TIME-SLICE over a base relation:
// each execution asks the lifespan interval index for the pinned tuples
// overlapping L, and restricts only those — unless the index would
// touch nearly everything (log n + k ≥ n), in which case restricting
// the whole pinned relation is cheaper and it does that instead. A
// relation of at most two tuples leaves the probe no budget (n − log n
// − 1 < 1), so its run neither probes nor builds the index. Either
// input is in key order: the probe's by rank, the fallback's the
// version's cached key order.
type indexTimeSliceNode struct {
	name string
	rel  *core.Relation
	at   *lsExpr
}

func (n *indexTimeSliceNode) scheme() *schema.Scheme { return n.rel.Scheme() }
func (n *indexTimeSliceNode) children() []node       { return n.at.subplans(nil) }

// candidates returns the pinned tuples to restrict, in key order, and
// whether the interval index chose them.
func (n *indexTimeSliceNode) candidates(s *Snapshot, L lifespan.Lifespan) ([]*core.Tuple, bool, error) {
	v, err := s.pinned(n.rel)
	if err != nil {
		return nil, false, err
	}
	c := v.Cardinality()
	if budget := c - int(logN(c)) - 1; budget >= 1 {
		if cand, ok := overlapping(v, L, budget); ok {
			return cand, true, nil
		}
	}
	all, err := v.KeyOrdered()
	return all, false, err
}

func (n *indexTimeSliceNode) bind(s *Snapshot) (bound, error) {
	L, err := s.lifespanOf(n.at)
	if err != nil {
		return bound{}, err
	}
	cand, _, err := n.candidates(s, L)
	return bound{in: cand, kernel: restrictKernel(L), partition: true, ordered: true}, err
}
func (n *indexTimeSliceNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *indexTimeSliceNode) describe(s *Snapshot) string {
	d := fmt.Sprintf("index-time-slice %s at %s", n.name, n.at.render(s.params))
	if !n.at.static() {
		return d + " (interval index, probed at execution)"
	}
	cand, indexed, err := n.candidates(s, n.at.value(s.params))
	switch {
	case err != nil:
		return fmt.Sprintf("%s (%v)", d, err)
	case !indexed:
		d += fmt.Sprintf(" (interval index over budget: restricting all %d tuples)", len(cand))
	default:
		d += fmt.Sprintf(" (interval index: %d of %d tuples alive)", len(cand), s.card(n.rel))
	}
	return d + parallelNote(len(cand))
}

// timeSliceNode restricts each tuple of its child to L — the form used
// when the source is not a base relation.
type timeSliceNode struct {
	child node
	at    *lsExpr
}

func (n *timeSliceNode) scheme() *schema.Scheme { return n.child.scheme() }
func (n *timeSliceNode) children() []node       { return n.at.subplans([]node{n.child}) }
func (n *timeSliceNode) bind(s *Snapshot) (bound, error) {
	L, err := s.lifespanOf(n.at)
	if err != nil {
		return bound{}, err
	}
	b, err := s.inputFrom(n.child, restrictKernel(L))
	_, b.partition = n.child.(*scanNode)
	return b, err
}
func (n *timeSliceNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *timeSliceNode) describe(s *Snapshot) string {
	return "time-slice at " + n.at.render(s.params) + s.scanNote(n.child)
}

// ---------------------------------------------------------------------
// selection

// filterNode applies a SELECT-IF or SELECT-WHEN condition per child
// tuple; its constants are bound from the parameters (bindCond).
type filterNode struct {
	child  node
	cond   hql.CondExpr
	when   bool
	forAll bool
	during *lsExpr
}

func (n *filterNode) scheme() *schema.Scheme { return n.child.scheme() }
func (n *filterNode) children() []node       { return n.during.subplans([]node{n.child}) }

func (n *filterNode) bind(s *Snapshot) (bound, error) {
	L, err := s.lifespanOf(n.during)
	if err != nil {
		return bound{}, err
	}
	b, err := s.inputFrom(n.child, filterKernel(bindCond(n.cond, s.params, n.child.scheme()), n.when, n.forAll, L))
	_, b.partition = n.child.(*scanNode)
	return b, err
}
func (n *filterNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *filterNode) describe(s *Snapshot) string {
	return fmt.Sprintf("filter %s %s%s", selKind(n.when, n.forAll), bindCond(n.cond, s.params, nil), s.duringSuffix(n.during)) +
		s.scanNote(n.child)
}

// indexSelectNode evaluates an existential or WHEN selection over a
// base relation from an index-pruned candidate set. Each execution
// prices, against the pin, the pruning the condition permits: the
// tuples matching a required equality conjunct (a key lookup, or the
// hash index plus its varying overflow), then the tuples overlapping a
// DURING lifespan (the lifespan index), and, only when neither was
// taken, the tuples whose values could meet a required range conjunct
// `A θ c`, θ ∈ {<, ≤, >, ≥}, over an Int or Time attribute (the
// value-range index, whose build over the whole relation an earlier
// probe's few candidates would not repay). Each probe is bounded by
// probeBudget and by the best count so far. A probe over
// the budget is abandoned: filtering the whole pinned relation in its
// cached key order, which sorts nothing, is cheaper than ordering that
// many candidates, and when no probe fits the node does that — and
// EXPLAIN shows it as that filter. Every
// input is in key order, so the result is. The full condition still
// runs per candidate, so pruning is pure speedup, never semantics. The
// ∀ form never gets here — vacuously-true tuples live outside any
// candidate set.
type indexSelectNode struct {
	name   string
	rel    *core.Relation
	cond   hql.CondExpr
	when   bool
	during *lsExpr
	// eq and rng are required conjuncts of cond with a constant in a
	// parameter slot — an equality and a range comparison — or nil.
	eq, rng *hql.PredExpr
}

// probeBudget is the most candidates a probe of a pinned relation of
// n tuples may return and still be taken over the key-ordered filter:
// a candidate costs its probe, its rank in one integer sort and the
// condition, a tuple the filter rejects the condition alone. The
// crossover was measured on the benchmark's scan_join EMP (5 000
// tuples, `SELECT WHEN SAL > c`, one worker, 2-CPU host): a range probe
// of 0.29 n candidates took 0.90 of the filter's time, 0.39 n 0.96,
// 0.50 n 1.02, 0.59 n 1.18 and 0.78 n 1.43.
func probeBudget(n int) int { return n / 2 }

func (n *indexSelectNode) scheme() *schema.Scheme { return n.rel.Scheme() }
func (n *indexSelectNode) children() []node       { return n.during.subplans(nil) }

// The probes an index-select can take, in the order it tries them.
const (
	viaScan = iota // none: the whole pinned relation
	viaEq
	viaDuring
	viaRange
)

// candidates returns the pinned tuples the condition has to see, in key
// order, and the probe that found them (viaScan when none was taken).
func (n *indexSelectNode) candidates(s *Snapshot, L lifespan.Lifespan) ([]*core.Tuple, int, error) {
	v, err := s.pinned(n.rel)
	if err != nil {
		return nil, viaScan, err
	}
	var cand []*core.Tuple
	via, budget := viaScan, probeBudget(v.Cardinality())
	if n.eq != nil {
		m, err := newEqProbe(v, n.eq.Attr).candidates(s.params[n.eq.Slot].v)
		if err != nil {
			return nil, viaScan, err
		}
		if len(m) <= budget {
			cand, via, budget = m, viaEq, len(m)-1
		}
	}
	if n.during != allTime {
		// Tuples missing L have empty scope and vanish.
		if m, ok := overlapping(v, L, budget); ok {
			cand, via, budget = m, viaDuring, len(m)-1
		}
	}
	if n.rng != nil && via == viaScan {
		q := rangeQuery(n.rng.Theta, s.params[n.rng.Slot].v)
		if m, ok := indexes(v).Range(n.rng.Attr).probe(v, q, budget); ok {
			cand, via = m, viaRange
		}
	}
	if via == viaScan {
		cand, err = v.KeyOrdered()
	}
	return cand, via, err
}

// rangeQuery is the value interval a tuple's [min, max] must meet to
// hold some value x with x θ c, for θ ∈ {<, ≤, >, ≥} and c of kind Int
// or Time: > c is [c+1, +∞], ≥ c is [c, +∞], < c is [−∞, c−1], ≤ c is
// [−∞, c], and empty past the int64 extremes. Ints compare as float64
// (value.Compare), under which x ≥ c can hold for an x just below a c
// of magnitude 2^53 or more that rounds with it; such a c is widened by
// 2048, more than any two int64s rounding together differ by. > and <
// need no slack: rounding is monotone.
func rangeQuery(th value.Theta, c value.Value) lifespan.Lifespan {
	x, slack := int64(0), int64(0)
	if c.Kind() == value.KindTime {
		x = int64(c.AsTime())
	} else if x = c.AsInt(); x <= -1<<53 || x >= 1<<53 {
		slack = 2048
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch th {
	case value.GT:
		if x == math.MaxInt64 {
			return lifespan.Empty()
		}
		lo = x + 1
	case value.GE:
		lo = max(x, math.MinInt64+slack) - slack
	case value.LT:
		if x == math.MinInt64 {
			return lifespan.Empty()
		}
		hi = x - 1
	default:
		hi = min(x, math.MaxInt64-slack) + slack
	}
	return lifespan.Interval(chronon.Time(lo), chronon.Time(hi))
}

func (n *indexSelectNode) bind(s *Snapshot) (bound, error) {
	L, err := s.lifespanOf(n.during)
	if err != nil {
		return bound{}, err
	}
	cand, _, err := n.candidates(s, L)
	return bound{in: cand, kernel: filterKernel(bindCond(n.cond, s.params, n.rel.Scheme()), n.when, false, L), partition: true, ordered: true}, err
}
func (n *indexSelectNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *indexSelectNode) describe(s *Snapshot) string {
	kind, cond := selKind(n.when, false), fmt.Sprint(bindCond(n.cond, s.params, nil))+s.duringSuffix(n.during)
	d := fmt.Sprintf("index-select %s %s %s", kind, n.name, cond)
	if !n.during.static() {
		return d + " (candidates priced at execution)"
	}
	cand, via, err := n.candidates(s, n.during.value(s.params))
	switch {
	case err != nil:
		return fmt.Sprintf("%s (%v)", d, err)
	case via == viaScan:
		return fmt.Sprintf("filter %s %s", kind, cond) + parallelNote(len(cand))
	}
	how := "interval-index"
	switch via {
	case viaEq:
		v, _ := s.pinned(n.rel)
		how = newEqProbe(v, n.eq.Attr).String()
	case viaRange:
		how = fmt.Sprintf("range-index %s.%s", n.name, n.rng.Attr)
	}
	return fmt.Sprintf("%s via %s (%d of %d candidates)", d, how, len(cand), s.card(n.rel)) +
		parallelNote(len(cand))
}

func selKind(when, forAll bool) string {
	switch {
	case when:
		return "when"
	case forAll:
		return "if-forall"
	default:
		return "if-exists"
	}
}

func (s *Snapshot) duringSuffix(e *lsExpr) string {
	if e == allTime {
		return ""
	}
	return " during " + e.render(s.params)
}

// ---------------------------------------------------------------------
// projection

// projectNode drops attributes tuple-at-a-time. The planner only emits
// it when the child's key survives the projection, so no historical
// duplicate elimination is needed; otherwise projection falls back to
// the naive operator.
type projectNode struct {
	child node
	attrs []string
	pos   []int // attrs' positions in the child's scheme
	rs    *schema.Scheme
}

func (n *projectNode) scheme() *schema.Scheme { return n.rs }
func (n *projectNode) children() []node       { return []node{n.child} }
func (n *projectNode) bind(s *Snapshot) (bound, error) {
	return s.inputFrom(n.child, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		nt, err := core.ProjectTuple(n.rs, t, n.pos)
		if err != nil {
			return out, err
		}
		return append(out, nt), nil
	})
}
func (n *projectNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *projectNode) describe(*Snapshot) string {
	return "project " + strings.Join(n.attrs, ", ") + " (key kept)"
}

// ---------------------------------------------------------------------
// rename

// renameNode is RENAME tuple-at-a-time: each child tuple under a new
// header on the renamed scheme, over its shared value slice.
type renameNode struct {
	child  node
	prefix string
	rs     *schema.Scheme
}

func (n *renameNode) scheme() *schema.Scheme { return n.rs }
func (n *renameNode) children() []node       { return []node{n.child} }
func (n *renameNode) bind(s *Snapshot) (bound, error) {
	return s.inputFrom(n.child, func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		return append(out, t.Renamed(n.rs)), nil
	})
}
func (n *renameNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *renameNode) describe(*Snapshot) string      { return "rename as " + n.prefix }

// ---------------------------------------------------------------------
// join

// joinSide is one operand of an index lookup join: its join attribute
// and that attribute's position in the operand's scheme, and either the
// base relation it names — the kind of operand a lookup can probe, and
// stream straight from the pin — or, for a derived operand, its plan.
type joinSide struct {
	in   node // nil for a base relation
	rel  *core.Relation
	name string
	attr string
	pos  int
}

func newJoinSide(n node, attr string) joinSide {
	sd := joinSide{in: n, attr: attr, pos: n.scheme().Index(attr)}
	if sc, ok := n.(*scanNode); ok {
		sd.in, sd.rel, sd.name = nil, sc.rel, sc.name
	}
	return sd
}

// indexJoinNode is the index lookup equijoin: it streams one operand
// and probes the other's key map or hash index per tuple instead of
// nested-looping over it. A streamed tuple whose join value is constant
// costs one probe; a time-varying value probes once per distinct image
// value. Only a base relation is probed, so a derived operand is always
// the one streamed. When both operands are base relations, each run
// streams the side with the smaller pinned tuples × (2 + the other
// side's probe bucket) — a streamed tuple costs its read, its probe and
// the probe's candidates, the indexed side's varying overflow among
// them — the left on a tie. The node then reads both relations from
// the pin and has no children: the tree shows only what runs.
type indexJoinNode struct {
	side [2]joinSide // left and right operand
	rs   *schema.Scheme
	join core.Joiner // the pair kernel, left and right in result-scheme order
}

func (n *indexJoinNode) scheme() *schema.Scheme { return n.rs }
func (n *indexJoinNode) children() []node {
	for _, sd := range n.side {
		if sd.in != nil {
			return []node{sd.in}
		}
	}
	return nil
}

// orient returns the index of the operand a run against s streams, and
// the probes of the base operands (nil for a derived one) it was priced
// with.
func (n *indexJoinNode) orient(s *Snapshot) (int, [2]*eqProbe, error) {
	var p [2]*eqProbe
	for i, sd := range n.side {
		if sd.rel != nil {
			v, err := s.pinned(sd.rel)
			if err != nil {
				return 0, p, err
			}
			p[i] = newEqProbe(v, sd.attr)
		}
	}
	switch {
	case p[0] == nil:
		return 0, p, nil
	case p[1] == nil:
		return 1, p, nil
	}
	if float64(p[1].v.Cardinality())*(2+p[0].bucket()) < float64(p[0].v.Cardinality())*(2+p[1].bucket()) {
		return 1, p, nil
	}
	return 0, p, nil
}

// bind streams one operand and joins each tuple against its probed
// candidates in the other — found through the pin (eqProbe), and
// re-checked by the pair kernel, so the probe's superset is exact.
func (n *indexJoinNode) bind(s *Snapshot) (bound, error) {
	i, probes, err := n.orient(s)
	if err != nil {
		return bound{}, err
	}
	pos, p := n.side[i].pos, probes[1-i]
	var in []*core.Tuple
	if sp := probes[i]; sp != nil {
		in, err = sp.v.KeyOrdered()
	} else {
		in, err = s.tuplesFrom(n.side[i].in)
	}
	return bound{in: in, partition: probes[i] != nil, kernel: func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		f := t.ValueAt(pos)
		if f.IsNowhereDefined() {
			return out, nil
		}
		// A constant join value costs one probe; a time-varying one
		// probes once per distinct image value.
		var cand []*core.Tuple
		var err error
		if f.IsConstant() {
			v, _ := f.ConstantValue()
			s.profLookups(n, 1)
			cand, err = p.candidates(v)
		} else {
			vals := f.Image()
			s.profLookups(n, len(vals))
			cand, err = p.candidates(vals...)
		}
		if err != nil {
			return out, err
		}
		for _, o := range cand {
			t1, t2 := t, o
			if i == 1 {
				t1, t2 = o, t
			}
			nt, err := n.join.Pair(t1, t2)
			if err != nil {
				return out, err
			}
			if nt != nil {
				out = append(out, nt)
			}
		}
		return out, nil
	}}, err
}
func (n *indexJoinNode) run(s *Snapshot) (batch, error) { return s.runOp(n) }
func (n *indexJoinNode) describe(s *Snapshot) string {
	i, probes, err := n.orient(s)
	if err != nil {
		return fmt.Sprintf("index-lookup-join (%v)", err)
	}
	st, ix, p := n.side[i], n.side[1-i], probes[1-i]
	d := fmt.Sprintf("index-lookup-join %s=%s", st.attr, ix.attr)
	note := ""
	if sp := probes[i]; sp != nil {
		c := sp.v.Cardinality()
		d += fmt.Sprintf(" streaming %s (%d tuples)", st.name, c)
		note = parallelNote(c)
	}
	d += fmt.Sprintf(" probing %s %s via %s", [2]string{"right", "left"}[i], ix.name, p)
	if p.ix == nil {
		d += fmt.Sprintf(" (%d keys)", p.v.Cardinality())
	}
	return d + note
}

// ---------------------------------------------------------------------
// naive operators

// opNode materializes its children and applies one of core's
// linear-scan algebra operators — the set operators, the joins other
// than the indexed equijoin, a key-dropping projection, dynamic
// TIME-SLICE and MATERIALIZE. Children still run as plans, so an
// indexed scan below a naive operator keeps its speedup. rs is the
// result scheme the operator derives from its operands' schemes.
type opNode struct {
	label string
	kids  []node
	rs    *schema.Scheme
	apply func(rels []*core.Relation) (*core.Relation, error)
}

func (n *opNode) scheme() *schema.Scheme { return n.rs }
func (n *opNode) children() []node       { return n.kids }
func (n *opNode) run(s *Snapshot) (batch, error) {
	rels := make([]*core.Relation, len(n.kids))
	for i, k := range n.kids {
		b, err := s.run(k)
		if err != nil {
			return batch{}, err
		}
		if rels[i], err = b.relation(k.scheme()); err != nil {
			return batch{}, err
		}
	}
	// A naive operator is one uninterruptible batch; check before it.
	if err := s.canceled(); err != nil {
		return batch{}, err
	}
	r, err := n.apply(rels)
	if err != nil {
		return batch{}, err
	}
	//lint:allow pindiscipline r is the operator's private output
	return batch{ts: r.Tuples(), rel: r}, nil
}
func (n *opNode) describe(*Snapshot) string { return n.label + " (naive)" }

func logN(n int) float64 {
	l := 0.0
	for m := 1; m < n; m *= 2 {
		l++
	}
	return l
}
