package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// cost is the planner's currency: estimated result cardinality and
// abstract work units (tuple touches). Estimates are heuristic — exact
// candidate counts where an index was consulted at plan time, coarse
// selectivity guesses elsewhere — which is enough to rank alternatives.
type cost struct {
	rows float64
	work float64
}

// node is one operator of a physical plan. run is its only execution
// method: it returns the node's complete result as a batch, computed
// against the query's pinned snapshot (nil = live reads, plan-time
// sub-queries only) — leaves read base-relation state through it, so
// one plan executes against one consistent database version no matter
// how many relations it touches or how writers race it. Parents, the
// plan root and the profiler reach a node through Snapshot.run, never
// n.run directly. opNode (the naive fallback) only knows its scheme at
// execution time and reports nil from scheme.
type node interface {
	scheme() *schema.Scheme
	run(s *Snapshot) (batch, error)
	estimate() cost
	describe() string
	children() []node
}

// batch is a node's complete result: a tuple slice on a scheme, or —
// for a scan's O(1) pinned view and a naive operator's output — an
// already-built relation.
type batch struct {
	scheme *schema.Scheme
	ts     []*core.Tuple
	rel    *core.Relation
}

func (b batch) tuples() []*core.Tuple {
	if b.rel != nil {
		//lint:allow pindiscipline rel is a frozen pinned view or an operator's private output (the live relation only under the nil snapshot's documented live reads)
		return b.rel.Tuples()
	}
	return b.ts
}

// relation is the engine's one materialization sink: the plan root and
// the inputs of naive operators turn a tuple batch into a relation
// here, in one coalesced pass (exact-size key map, no per-tuple lock
// rounds). Kernels keep each input tuple's unique constant key (joins
// concatenate two), so the construction cannot hit a duplicate; it
// still verifies.
func (b batch) relation() (*core.Relation, error) {
	if b.rel != nil {
		return b.rel, nil
	}
	return core.NewRelationFromTuples(b.scheme, b.ts)
}

// tupleKernel is one operator's per-tuple work: it appends t's results
// (zero, one or several tuples) to out and returns the extended slice.
// Kernels are order-preserving and per-tuple independent, which is
// what lets the same kernel run sequentially or over partitions.
type tupleKernel func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error)

// tupleOp is a per-tuple operator — the paper's T_L(r) = { t|L : t ∈ r }
// shape: an input set plus a kernel, each stated once. kernel is
// called once per executing goroutine, so a kernel may carry
// per-goroutine state (the join's memoized candidate resolver).
type tupleOp interface {
	node
	input(s *Snapshot) ([]*core.Tuple, error)
	kernel(s *Snapshot) tupleKernel
}

// run executes n — the operator boundary every parent goes through.
// Under EXPLAIN ANALYZE it takes the node's one measurement: wall time
// and rows of the whole batch. Children run inside their parent's
// run, so self time is wall minus the children's wall.
func (s *Snapshot) run(n node) (batch, error) {
	if s == nil || s.prof == nil {
		return n.run(s)
	}
	st := s.prof.stats(n)
	t0 := time.Now()
	b, err := n.run(s)
	st.wall = time.Since(t0)
	st.rows = int64(len(b.tuples()))
	return b, err
}

// tuplesFrom runs a child operator and returns its result tuples.
func (s *Snapshot) tuplesFrom(child node) ([]*core.Tuple, error) {
	b, err := s.run(child)
	return b.tuples(), err
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

// runSequential executes a per-tuple operator on the query goroutine.
func (s *Snapshot) runSequential(op tupleOp) (batch, error) {
	in, err := op.input(s)
	if err != nil {
		return batch{}, err
	}
	out, err := s.apply(op.kernel(s), in, make([]*core.Tuple, 0, len(in)))
	return batch{scheme: op.scheme(), ts: out}, err
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

// explain renders the plan tree, one node per line with cost estimates.
func explain(n node, b *strings.Builder, depth int) {
	c := n.estimate()
	fmt.Fprintf(b, "%s%s  [rows≈%.0f cost≈%.0f]\n", strings.Repeat("  ", depth), n.describe(), c.rows, c.work)
	for _, k := range n.children() {
		explain(k, b, depth+1)
	}
}

// ---------------------------------------------------------------------
// scan

// scanNode reads every tuple of a base relation — the plan leaf when
// no index applies. Its batch is the pinned version as a frozen O(1)
// view, so naive operators consuming it read the snapshot, not the
// live relation.
type scanNode struct {
	name string
	rel  *core.Relation
}

func (n *scanNode) scheme() *schema.Scheme { return n.rel.Scheme() }
func (n *scanNode) children() []node       { return nil }
func (n *scanNode) run(s *Snapshot) (batch, error) {
	return batch{rel: s.relOf(n.rel)}, nil
}
func (n *scanNode) estimate() cost {
	r := float64(n.rel.Cardinality())
	return cost{rows: r, work: r}
}
func (n *scanNode) describe() string {
	return fmt.Sprintf("scan %s (%d tuples)", n.name, n.rel.Cardinality())
}

// ---------------------------------------------------------------------
// time-slice

// indexTimeSliceNode answers a static TIME-SLICE from the lifespan
// interval index: only the tuples whose lifespan overlaps L are touched,
// then each is restricted to L. Candidates are resolved at plan time —
// the index probe is the cheap part — so the cost estimate is exact.
type indexTimeSliceNode struct {
	name string
	rel  *core.Relation
	L    lifespan.Lifespan
	cand []*core.Tuple
}

func (n *indexTimeSliceNode) scheme() *schema.Scheme { return n.rel.Scheme() }
func (n *indexTimeSliceNode) children() []node       { return nil }

// cand was resolved at plan time; the engine only executes a plan
// against a snapshot pinned at the exact versions it was compiled for,
// so the candidate set already describes the pinned state.
func (n *indexTimeSliceNode) input(*Snapshot) ([]*core.Tuple, error) { return n.cand, nil }
func (n *indexTimeSliceNode) kernel(*Snapshot) tupleKernel           { return restrictKernel(n.L) }
func (n *indexTimeSliceNode) run(s *Snapshot) (batch, error)         { return s.runSequential(n) }
func (n *indexTimeSliceNode) estimate() cost {
	k := float64(len(n.cand))
	return cost{rows: k, work: logN(n.rel.Cardinality()) + k}
}
func (n *indexTimeSliceNode) describe() string {
	return fmt.Sprintf("index-time-slice %s at %s (interval index: %d of %d tuples alive)",
		n.name, n.L, len(n.cand), n.rel.Cardinality())
}

// timeSliceNode restricts each tuple of its child to L — the pushdown
// residual used when the source is not a base relation, or when the
// interval index would touch nearly everything. sel is the estimated
// fraction of tuples surviving the restriction (interval-geometry
// statistics over base relations, 1 where unknown).
type timeSliceNode struct {
	child node
	L     lifespan.Lifespan
	sel   float64
}

func (n *timeSliceNode) scheme() *schema.Scheme                   { return n.child.scheme() }
func (n *timeSliceNode) children() []node                         { return []node{n.child} }
func (n *timeSliceNode) input(s *Snapshot) ([]*core.Tuple, error) { return s.tuplesFrom(n.child) }
func (n *timeSliceNode) kernel(*Snapshot) tupleKernel             { return restrictKernel(n.L) }
func (n *timeSliceNode) run(s *Snapshot) (batch, error)           { return s.runSequential(n) }
func (n *timeSliceNode) estimate() cost {
	c := n.child.estimate()
	return cost{rows: c.rows * n.sel, work: c.work + c.rows}
}
func (n *timeSliceNode) describe() string {
	return fmt.Sprintf("time-slice at %s", n.L)
}

// ---------------------------------------------------------------------
// selection

// filterNode applies a SELECT-IF or SELECT-WHEN condition per child
// tuple. sel is the condition's estimated selectivity —
// statistics-derived over base relations, comparator defaults
// otherwise.
type filterNode struct {
	child  node
	cond   core.Condition
	when   bool
	forAll bool
	L      lifespan.Lifespan
	sel    float64
}

func (n *filterNode) scheme() *schema.Scheme                   { return n.child.scheme() }
func (n *filterNode) children() []node                         { return []node{n.child} }
func (n *filterNode) input(s *Snapshot) ([]*core.Tuple, error) { return s.tuplesFrom(n.child) }
func (n *filterNode) kernel(*Snapshot) tupleKernel {
	return filterKernel(n.cond, n.when, n.forAll, n.L)
}
func (n *filterNode) run(s *Snapshot) (batch, error) { return s.runSequential(n) }
func (n *filterNode) estimate() cost {
	c := n.child.estimate()
	return cost{rows: c.rows * n.sel, work: c.work + c.rows}
}
func (n *filterNode) describe() string {
	return fmt.Sprintf("filter %s %s%s", selKind(n.when, n.forAll), n.cond, duringSuffix(n.L))
}

// indexSelectNode evaluates a selection over an index-pruned candidate
// set: either the tuples matching a required equality conjunct (hash
// index probe plus its varying overflow) or the tuples overlapping a
// DURING lifespan (interval index). The full condition still runs per
// candidate, so pruning is pure speedup, never semantics. The ∀ form is
// excluded by the planner — vacuously-true tuples live outside any
// candidate set.
type indexSelectNode struct {
	name  string
	rel   *core.Relation
	cond  core.Condition
	when  bool
	L     lifespan.Lifespan
	cand  []*core.Tuple
	prune string // how the candidates were found, for EXPLAIN
}

func (n *indexSelectNode) scheme() *schema.Scheme                 { return n.rel.Scheme() }
func (n *indexSelectNode) children() []node                       { return nil }
func (n *indexSelectNode) input(*Snapshot) ([]*core.Tuple, error) { return n.cand, nil }
func (n *indexSelectNode) kernel(*Snapshot) tupleKernel {
	return filterKernel(n.cond, n.when, false, n.L)
}
func (n *indexSelectNode) run(s *Snapshot) (batch, error) { return s.runSequential(n) }
func (n *indexSelectNode) estimate() cost {
	k := float64(len(n.cand))
	return cost{rows: k, work: k + 1}
}
func (n *indexSelectNode) describe() string {
	return fmt.Sprintf("index-select %s %s %s%s via %s (%d of %d candidates)",
		selKind(n.when, false), n.name, n.cond, duringSuffix(n.L), n.prune, len(n.cand), n.rel.Cardinality())
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

func duringSuffix(L lifespan.Lifespan) string {
	if L.Equal(lifespan.All()) {
		return ""
	}
	return " during " + L.String()
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
	rs    *schema.Scheme
}

func (n *projectNode) scheme() *schema.Scheme                   { return n.rs }
func (n *projectNode) children() []node                         { return []node{n.child} }
func (n *projectNode) input(s *Snapshot) ([]*core.Tuple, error) { return s.tuplesFrom(n.child) }
func (n *projectNode) kernel(*Snapshot) tupleKernel {
	return func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		nv := make(map[string]tfunc.Func, len(n.attrs))
		for _, a := range n.attrs {
			nv[a] = t.Value(a)
		}
		nt, err := core.NewTuple(n.rs, t.Lifespan(), nv)
		if err != nil {
			return out, err
		}
		return append(out, nt), nil
	}
}
func (n *projectNode) run(s *Snapshot) (batch, error) { return s.runSequential(n) }
func (n *projectNode) estimate() cost {
	c := n.child.estimate()
	return cost{rows: c.rows, work: c.work + c.rows}
}
func (n *projectNode) describe() string {
	return "project " + strings.Join(n.attrs, ", ") + " (key kept)"
}

// ---------------------------------------------------------------------
// join

// indexJoinNode is the index lookup equijoin: it streams one side and
// probes the other side's hash index per tuple instead of nested-looping
// over it. A streamed tuple whose join value is constant costs one
// probe; a time-varying value probes once per distinct image value. The
// indexed side's varying overflow joins against every streamed tuple —
// the index cannot rule those pairs out — so the cost model charges for
// them and the planner picks the orientation that minimizes the total.
type indexJoinNode struct {
	stream       node
	streamAttr   string
	indexed      *core.Relation
	indexedName  string
	indexedAttr  string
	rs           *schema.Scheme
	leftIsStream bool // stream side is r1 of the result scheme
	// keyProbe probes the indexed relation's canonical key map; aix is
	// the attribute hash index probed otherwise. Probes run against
	// live structures at execution time and are restricted to the
	// query's pinned snapshot: key lookups bound by the pinned prefix,
	// attribute-index candidates resolved through it (live probes are
	// a superset of the pinned matches — value images only grow under
	// merges — and JoinPair re-checks every candidate, so restriction
	// is exact).
	keyProbe  bool
	aix       *AttrIndex
	probeDesc string
	avgBucket float64
}

func (n *indexJoinNode) scheme() *schema.Scheme { return n.rs }
func (n *indexJoinNode) children() []node       { return []node{n.stream} }

// probeVal returns the indexed-side tuples whose attribute could equal
// v, as of the pinned snapshot.
func (n *indexJoinNode) probeVal(s *Snapshot, v value.Value) []*core.Tuple {
	s.profLookup(n)
	if n.keyProbe {
		if t, ok := s.lookupKey(n.indexed, v.String()); ok {
			return []*core.Tuple{t}
		}
		return nil
	}
	return s.resolve(n.indexed, n.aix.Probe(v))
}

// candidateFn returns the per-tuple candidate resolver for one
// execution of the node. Under a snapshot, the varying overflow is
// re-read live for every streamed tuple — a pinned-constant tuple that
// a concurrent merge moves to varying mid-stream must still be found —
// and the resolved candidates are deduplicated by pinned identity: the
// same pinned object can surface through both a bucket probed before
// such a merge and the varying list read after it, and the join must
// not emit the pair twice. Without a snapshot (plan-time sub-query
// evaluation only), the varying overflow is captured once up front
// instead, which cannot alias any later bucket probe.
func (n *indexJoinNode) candidateFn(s *Snapshot) func(*core.Tuple) []*core.Tuple {
	var baseVarying []*core.Tuple
	if s == nil && n.aix != nil {
		baseVarying = n.aix.Varying()
	}
	// Memoized resolution of the live varying slice: Varying() hands out
	// stable snapshots (appends extend behind them, removals copy
	// first), so an unchanged (pointer, length) identity means unchanged
	// contents and the resolved set from the previous streamed tuple can
	// be reused — the per-tuple live re-read then only pays for actual
	// mid-stream merges instead of O(stream × varying) key computations.
	var lastVarying, lastResolved []*core.Tuple
	resolveVarying := func() []*core.Tuple {
		v := n.aix.Varying()
		if len(v) == 0 {
			return nil
		}
		if len(v) == len(lastVarying) && &v[0] == &lastVarying[0] {
			return lastResolved
		}
		lastVarying, lastResolved = v, s.resolve(n.indexed, v)
		return lastResolved
	}
	return func(t *core.Tuple) []*core.Tuple {
		f := t.Value(n.streamAttr)
		if f.IsNowhereDefined() {
			return nil
		}
		var out []*core.Tuple
		if f.IsConstant() {
			v, _ := f.ConstantValue()
			out = n.probeVal(s, v)
		} else {
			// Distinct image values hit disjoint buckets, so no pair repeats.
			for _, v := range f.Image() {
				out = append(out, n.probeVal(s, v)...)
			}
		}
		if n.aix == nil {
			return out
		}
		varying := baseVarying
		if s != nil {
			varying = resolveVarying()
		}
		if len(varying) == 0 {
			return out
		}
		merged := append(append(make([]*core.Tuple, 0, len(out)+len(varying)), out...), varying...)
		if s == nil {
			return merged
		}
		seen := make(map[*core.Tuple]bool, len(merged))
		dedup := merged[:0]
		for _, c := range merged {
			if !seen[c] {
				seen[c] = true
				dedup = append(dedup, c)
			}
		}
		return dedup
	}
}

func (n *indexJoinNode) input(s *Snapshot) ([]*core.Tuple, error) { return s.tuplesFrom(n.stream) }

// kernel joins one streamed tuple against its probed candidates. Each
// executing goroutine gets its own candidate resolver — the resolver
// memoizes the varying-overflow resolution, which is per-goroutine
// state.
func (n *indexJoinNode) kernel(s *Snapshot) tupleKernel {
	candidates := n.candidateFn(s)
	return func(t *core.Tuple, out []*core.Tuple) ([]*core.Tuple, error) {
		for _, o := range candidates(t) {
			t1, t2 := t, o
			a, b := n.streamAttr, n.indexedAttr
			if !n.leftIsStream {
				t1, t2 = o, t
				a, b = n.indexedAttr, n.streamAttr
			}
			nt, err := core.JoinPair(n.rs, t1, t2, a, value.EQ, b)
			if err != nil {
				return out, err
			}
			if nt != nil {
				out = append(out, nt)
			}
		}
		return out, nil
	}
}
func (n *indexJoinNode) run(s *Snapshot) (batch, error) { return s.runSequential(n) }
func (n *indexJoinNode) estimate() cost {
	c := n.stream.estimate()
	probes := c.rows * (1 + n.avgBucket)
	return cost{rows: c.rows * maxf(n.avgBucket, 0.5), work: c.work + probes}
}
func (n *indexJoinNode) describe() string {
	side := "right"
	if !n.leftIsStream {
		side = "left"
	}
	return fmt.Sprintf("index-lookup-join %s=%s probing %s %s via %s",
		n.streamAttr, n.indexedAttr, side, n.indexedName, n.probeDesc)
}

// ---------------------------------------------------------------------
// naive fallback

// opNode materializes its children and applies one naive algebra
// operator — the planner's per-operator fallback. Children still run as
// plans, so an indexed scan below a naive operator keeps its speedup.
type opNode struct {
	name  string
	kids  []node
	est   cost
	apply func(rels []*core.Relation) (*core.Relation, error)
}

func (n *opNode) scheme() *schema.Scheme { return nil }
func (n *opNode) children() []node       { return n.kids }
func (n *opNode) run(s *Snapshot) (batch, error) {
	rels := make([]*core.Relation, len(n.kids))
	for i, k := range n.kids {
		b, err := s.run(k)
		if err != nil {
			return batch{}, err
		}
		if rels[i], err = b.relation(); err != nil {
			return batch{}, err
		}
	}
	// A naive operator is one uninterruptible batch; check before it.
	if err := s.canceled(); err != nil {
		return batch{}, err
	}
	r, err := n.apply(rels)
	return batch{rel: r}, err
}
func (n *opNode) estimate() cost { return n.est }
func (n *opNode) describe() string {
	return n.name + " (naive)"
}

func logN(n int) float64 {
	l := 0.0
	for m := 1; m < n; m *= 2 {
		l++
	}
	return l
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
