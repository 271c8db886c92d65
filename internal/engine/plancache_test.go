package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// fpInput is one (normalized query, relation-version set) identity for
// the injectivity property. Dependency names and the query text draw
// from an alphabet heavy in the encoding's separator and escape
// characters, digits and '@' — exactly the characters a naive
// "text|name@version|..." concatenation would collide on.
type fpInput struct {
	Text string
	Deps []fpDep
}

type fpDep struct {
	Name    string
	Version uint64
}

func (fpInput) Generate(r *rand.Rand, _ int) fpInput {
	const alphabet = `ab|\@0123456789 `
	randStr := func(n int) string {
		b := make([]byte, r.Intn(n)+1)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	in := fpInput{Text: randStr(12)}
	for i := r.Intn(4); i > 0; i-- {
		in.Deps = append(in.Deps, fpDep{Name: randStr(8), Version: uint64(r.Intn(100))})
	}
	return in
}

func (in fpInput) key() string {
	deps := make([]planDep, len(in.Deps))
	for i, d := range in.Deps {
		deps[i] = planDep{name: d.Name, version: d.Version}
	}
	return planFingerprint(in.Text, deps)
}

func (in fpInput) canon() string {
	parts := []string{in.Text}
	for _, d := range in.Deps {
		parts = append(parts, fmt.Sprintf("%s\x00%d", d.Name, d.Version))
	}
	return strings.Join(parts, "\x01")
}

// TestPlanFingerprintInjective is the property test of the plan
// cache's entry identity: two distinct (normalized query,
// relation-version set) pairs never produce the same fingerprint.
// value.EncodeKey's escaping is what carries the property — the test
// also pins a few handcrafted near-collisions that a plain join would
// conflate.
func TestPlanFingerprintInjective(t *testing.T) {
	if err := quick.Check(func(a, b fpInput) bool {
		if a.canon() == b.canon() {
			return a.key() == b.key()
		}
		return a.key() != b.key()
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}

	// Handcrafted near-collisions: separator bleeding between fields.
	pairs := [][2]fpInput{
		{{Text: "q|R", Deps: []fpDep{{"S", 1}}}, {Text: "q", Deps: []fpDep{{"R|S", 1}}}},
		{{Text: "q", Deps: []fpDep{{"R", 12}}}, {Text: "q", Deps: []fpDep{{"R|1", 2}}}},
		{{Text: "q", Deps: []fpDep{{"R", 1}, {"S", 2}}}, {Text: "q", Deps: []fpDep{{"R", 1}}}},
		{{Text: "q", Deps: []fpDep{{`R\`, 1}}}, {Text: "q", Deps: []fpDep{{`R\|1`, 1}}}},
		{{Text: "q", Deps: nil}, {Text: "q|", Deps: nil}},
	}
	for _, p := range pairs {
		if p[0].key() == p[1].key() {
			t.Errorf("collision: %+v vs %+v -> %q", p[0], p[1], p[0].key())
		}
	}
}

// swapStore builds a store with relations A and B holding one tuple
// each; sal differentiates generations of the same relation name.
func swapStore(t *testing.T, names []string, sal int64) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	full := lifespan.Interval(0, 99)
	for _, name := range names {
		s := schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
		r := core.NewRelation(s)
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("K", value.String_("x")).
			Set("SAL", 0, 9, value.Int(sal)).
			MustBuild())
		st.Put(r)
	}
	return st
}

// TestPlanCacheSweepPerWriteGroup is the regression test for sweep
// coalescing: a write group spanning k catalogued relations delivers k
// change notifications but must trigger exactly one stale sweep (the
// group ticks the epoch once), while k independent single-relation
// inserts — k epochs — trigger k. It also checks the coalesced sweep
// actually works: every plan fenced on the group's relations is gone
// from the cache afterwards without any lookup or store happening.
func TestPlanCacheSweepPerWriteGroup(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()

	names := []string{"A", "B", "C"}
	st := swapStore(t, names, 100)
	rels := make([]*core.Relation, len(names))
	for i, n := range names {
		r, ok := st.Get(n)
		if !ok {
			t.Fatalf("relation %s missing", n)
		}
		rels[i] = r
		// Register the catalog observer (the sweep's delivery channel)
		// and cache one plan fenced on this relation.
		BuildIndexes(r)
		if _, err := sess(st).Query(bg, fmt.Sprintf(`SELECT WHEN SAL = 100 FROM %s`, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, entries := PlanCacheStats(); entries != len(names) {
		t.Fatalf("cached %d plans, want %d", entries, len(names))
	}

	tup := func(r *core.Relation, key string) *core.Tuple {
		return core.NewTupleBuilder(r.Scheme(), lifespan.Interval(10, 19)).
			Key("K", value.String_(key)).
			Set("SAL", 10, 19, value.Int(7)).
			MustBuild()
	}

	// One group over all three relations: three notifications, one epoch
	// tick, exactly one sweep — and it drops all three fenced plans.
	s0 := mPlanSweeps.Load()
	g := core.NewWriteGroup()
	for _, r := range rels {
		g.Insert(r, tup(r, "g"))
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mPlanSweeps.Load() - s0; got != 1 {
		t.Fatalf("write group over %d relations ran %d sweeps, want 1", len(rels), got)
	}
	if _, _, entries := PlanCacheStats(); entries != 0 {
		t.Fatalf("%d stale plans survived the group sweep, want 0", entries)
	}

	// Re-cache, then three independent inserts: three epochs, three
	// sweeps — the uncoalesced baseline the group must beat.
	for _, n := range names {
		if _, err := sess(st).Query(bg, fmt.Sprintf(`SELECT WHEN SAL = 100 FROM %s`, n)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := mPlanSweeps.Load()
	for _, r := range rels {
		r.MustInsert(tup(r, "i"))
	}
	if got := mPlanSweeps.Load() - s1; got != uint64(len(rels)) {
		t.Fatalf("%d single-relation inserts ran %d sweeps, want %d", len(rels), got, len(rels))
	}
}

// TestInvalidateStalePlansOnSwap is the regression test for the CLI's
// store-swap path: a plan cached against the old store must not serve
// results after the environment swaps to a new store with the same
// relation names — and, unlike the old wholesale cache reset, entries
// whose relations survived the swap must stay warm.
func TestInvalidateStalePlansOnSwap(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()

	st1 := swapStore(t, []string{"A", "B"}, 100)
	q := `SELECT WHEN SAL = 200 FROM A`
	res, err := sess(st1).Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 0 {
		t.Fatalf("old store: SAL=200 matched %d tuples, want 0", res.Relation.Cardinality())
	}

	// Swap: same names, different data (SAL=200 everywhere), keeping
	// st1's B relation object so one cached plan stays valid.
	st2 := swapStore(t, []string{"A"}, 200)
	b1, _ := st1.Get("B")
	st2.Put(b1)
	qb := `SELECT WHEN SAL = 100 FROM B`
	if _, err := sess(st1).Query(bg, qb); err != nil { // cache a plan that survives
		t.Fatal(err)
	}

	dropped := InvalidateStalePlans(st2)
	if dropped == 0 {
		t.Fatal("swap invalidation dropped nothing; the A-plan pins the old store")
	}

	// The stale-plan read: the swapped store's A has SAL=200.
	res, err = sess(st2).Query(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Cardinality(); got != 1 {
		t.Fatalf("stale plan served after swap: SAL=200 matched %d tuples, want 1", got)
	}

	// The B-plan survived the swap and hits.
	h0, _, _ := PlanCacheStats()
	if _, err := sess(st2).Query(bg, qb); err != nil {
		t.Fatal(err)
	}
	if h1, _, _ := PlanCacheStats(); h1 != h0+1 {
		t.Fatalf("surviving relation's plan did not hit after swap (hits %d -> %d)", h0, h1)
	}
}
