package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file is an oracle for the algebra that does not share its code:
// for every pointwise operator op, the snapshot of op's result at a
// chronon s must equal the classical operator of internal/rel applied to
// the operands' snapshots at s. The engine's differential tests compare
// two evaluators that both run on this package's tuples, so a tuple
// whose values sit at the wrong positions fools both; here the
// reference reads flat snapshot rows that core.Snapshot lays out by
// name. Operands are random historical relations over the clock
// [0,40] — two to four attributes, step-varying values, lifespans of up
// to three intervals — and set-operator and natural-join operand pairs
// include schemes listing the same attributes in different orders.
//
// Values are defined over the whole of each tuple's lifespan, so a
// snapshot drops no live tuple for a missing value; with nulls, π is not
// pointwise (a tuple whose projected attributes are defined at s while
// a dropped one is not survives the projection's snapshot but not the
// operand's).
//
// The operators checked are σ-WHEN (constant and attribute right-hand
// sides), π (keeping and dropping the key), θ-join and equijoin, natural
// join, static TIME-SLICE, and the object-based ∪ₒ, ∩ₒ and −ₒ. The
// others are not pointwise, so they are not checked here:
//   - σ-IF keeps or drops a whole tuple by quantifying over its
//     lifespan, so a tuple's presence at s depends on other times;
//   - ∪, ∩ and − compare whole histories: two tuples that agree at s
//     but differ elsewhere are different members;
//   - × and the outer θ-join span t1.l ∪ t2.l, so a result tuple lives
//     at times one operand does not;
//   - dynamic TIME-SLICE and TIME-JOIN restrict each tuple to the times
//     its time-valued attribute refers to, not the times it holds at;
//   - WHEN returns a lifespan, not a relation.

// snapClock is the last chronon of the oracle's clock [0,snapClock].
const snapClock = 40

var snapFull = lifespan.Interval(0, snapClock)

// snapGen draws the oracle's random schemes, histories and lifespans.
type snapGen struct{ rng *rand.Rand }

// scheme returns a scheme keyed by key whose other attributes are a
// random non-empty subset of pool, all listed in a random order.
func (g *snapGen) scheme(name, key string, pool ...schema.Attribute) *schema.Scheme {
	attrs := []schema.Attribute{{Name: key, Domain: value.Strings, Lifespan: snapFull}}
	for _, i := range g.rng.Perm(len(pool))[:1+g.rng.Intn(len(pool))] {
		attrs = append(attrs, pool[i])
	}
	g.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	return schema.MustNew(name, []string{key}, attrs...)
}

// permuted returns s with its attributes listed in another order.
func permuted(s *schema.Scheme) *schema.Scheme {
	attrs := append(append([]schema.Attribute(nil), s.Attrs[1:]...), s.Attrs[0])
	return schema.MustNew(s.Name, s.Key, attrs...)
}

func snapAttr(name string, d value.Domain) schema.Attribute {
	return schema.Attribute{Name: name, Domain: d, Lifespan: snapFull, Interp: "step"}
}

// value draws from a small domain, so selections, joins and projections
// meet equal values.
func (g *snapGen) value(d value.Domain) value.Value {
	if d.Kind == value.KindString {
		return value.String_(string(rune('a' + g.rng.Intn(3))))
	}
	return value.Int(int64(g.rng.Intn(4)))
}

// history is one attribute's value at every chronon of the clock, in
// runs of one to eight chronons.
func (g *snapGen) history(d value.Domain) []value.Value {
	h := make([]value.Value, snapClock+1)
	for s := 0; s <= snapClock; {
		v := g.value(d)
		for end := s + 1 + g.rng.Intn(8); s < end && s <= snapClock; s++ {
			h[s] = v
		}
	}
	return h
}

// lifespan is one to three intervals of the clock.
func (g *snapGen) lifespan() lifespan.Lifespan {
	var ivs []chronon.Interval
	for range 1 + g.rng.Intn(3) {
		lo := g.rng.Intn(snapClock + 1)
		ivs = append(ivs, chronon.NewInterval(chronon.Time(lo), chronon.Time(min(lo+g.rng.Intn(14), snapClock))))
	}
	return lifespan.New(ivs...)
}

// world is n objects' complete histories on a scheme's attributes.
type world struct {
	keys []string
	hist []map[string][]value.Value
}

func (g *snapGen) world(s *schema.Scheme, n int) world {
	w := world{keys: make([]string, n), hist: make([]map[string][]value.Value, n)}
	for i := range n {
		w.keys[i] = fmt.Sprintf("%s%d", s.Key[0], i)
		w.hist[i] = map[string][]value.Value{}
		for _, a := range s.Attrs {
			w.hist[i][a.Name] = g.history(a.Domain)
		}
	}
	return w
}

// relation holds, on s, each object of w over the lifespan ls gives it
// (none when empty), with every value read from the history by name.
func (w world) relation(s *schema.Scheme, ls func(i int) lifespan.Lifespan) *Relation {
	r := NewRelation(s)
	for i, k := range w.keys {
		l := ls(i)
		if l.IsEmpty() {
			continue
		}
		b := NewTupleBuilder(s, l).Key(s.Key[0], value.String_(k))
		for _, a := range s.Attrs {
			if a.Name == s.Key[0] {
				continue
			}
			l.Each(func(t chronon.Time) bool {
				b.SetAt(a.Name, t, w.hist[i][a.Name][t])
				return true
			})
		}
		r.MustInsert(b.MustBuild())
	}
	return r
}

// sometimes returns a random lifespan, or the empty one a third of the
// time, so objects of a pair are present in one operand or both.
func (g *snapGen) sometimes() lifespan.Lifespan {
	if g.rng.Intn(3) == 0 {
		return lifespan.Empty()
	}
	return g.lifespan()
}

// snapCase is one operator application and its classical counterpart.
type snapCase struct {
	name string
	ops  []*Relation
	hist func(ops []*Relation) (*Relation, error)
	flat func(s chronon.Time, snaps []*rel.Relation) (*rel.Relation, error)
}

// inOrder re-lists a snapshot's columns in o's order, so the classical
// set operators, which compare columns by position, see one layout.
func inOrder(r, o *rel.Relation) (*rel.Relation, error) {
	return rel.Project(r, o.Scheme().Attrs...)
}

// snapCases draws one seed's operands and operator applications.
func snapCases(seed int64) []snapCase {
	g := &snapGen{rng: rand.New(rand.NewSource(seed))}
	a, b, c := snapAttr("A", value.Ints), snapAttr("B", value.Strings), snapAttr("C", value.Ints)
	s1 := g.scheme("R", "K", a, b, c)
	w := g.world(s1, 2+g.rng.Intn(5))
	r1 := w.relation(s1, func(int) lifespan.Lifespan { return g.lifespan() })
	attrs := s1.AttrNames()
	pick := func() schema.Attribute { return s1.Attrs[g.rng.Intn(len(s1.Attrs))] }
	thetas := []value.Theta{value.EQ, value.NE, value.LT, value.GE}

	var cases []snapCase
	unary := func(name string, hist func(*Relation) (*Relation, error), flat func(chronon.Time, *rel.Relation) (*rel.Relation, error)) {
		cases = append(cases, snapCase{name: name, ops: []*Relation{r1},
			hist: func(ops []*Relation) (*Relation, error) { return hist(ops[0]) },
			flat: func(s chronon.Time, snaps []*rel.Relation) (*rel.Relation, error) { return flat(s, snaps[0]) }})
	}

	// σ-WHEN, constant and attribute right-hand sides.
	at, th := pick(), thetas[g.rng.Intn(len(thetas))]
	k := g.value(at.Domain)
	unary(fmt.Sprintf("σ-WHEN %s%s%s", at.Name, th, k),
		func(r *Relation) (*Relation, error) {
			return SelectWhen(r, Predicate{Attr: at.Name, Theta: th, Const: k}, lifespan.All())
		},
		func(_ chronon.Time, r *rel.Relation) (*rel.Relation, error) { return rel.Select(r, at.Name, th, k, "") })
	if s1.HasAttr("A") && s1.HasAttr("C") {
		unary(fmt.Sprintf("σ-WHEN A%sC", th),
			func(r *Relation) (*Relation, error) {
				return SelectWhen(r, Predicate{Attr: "A", Theta: th, OtherAttr: "C"}, lifespan.All())
			},
			func(_ chronon.Time, r *rel.Relation) (*rel.Relation, error) {
				return rel.Select(r, "A", th, value.Value{}, "C")
			})
	}

	// π onto a random ordered subset: keeping the key or dropping it.
	proj := append([]string(nil), attrs...)
	g.rng.Shuffle(len(proj), func(i, j int) { proj[i], proj[j] = proj[j], proj[i] })
	proj = proj[:1+g.rng.Intn(len(proj))]
	unary(fmt.Sprintf("π %v", proj),
		func(r *Relation) (*Relation, error) { return Project(r, proj...) },
		func(_ chronon.Time, r *rel.Relation) (*rel.Relation, error) { return rel.Project(r, proj...) })

	// Static TIME-SLICE.
	L := g.lifespan()
	unary(fmt.Sprintf("TIME-SLICE %v", L),
		func(r *Relation) (*Relation, error) { return TimesliceStatic(r, L) },
		func(s chronon.Time, r *rel.Relation) (*rel.Relation, error) {
			if L.Contains(s) {
				return r, nil
			}
			return rel.NewRelation(r.Scheme()), nil
		})

	// ∪ₒ, ∩ₒ, −ₒ over two slices of one world, the second listed in r1's
	// order and in another.
	for _, s2 := range []*schema.Scheme{s1, permuted(s1)} {
		r1m := w.relation(s1, func(int) lifespan.Lifespan { return g.sometimes() })
		r2m := w.relation(s2, func(int) lifespan.Lifespan { return g.sometimes() })
		for _, op := range []struct {
			name string
			hist func(r1, r2 *Relation) (*Relation, error)
			flat func(r, o *rel.Relation) (*rel.Relation, error)
		}{
			{"∪ₒ", UnionMerge, rel.Union},
			{"∩ₒ", IntersectMerge, rel.Intersect},
			{"−ₒ", DiffMerge, rel.Diff},
		} {
			cases = append(cases, snapCase{name: fmt.Sprintf("%v %s %v", s1.AttrNames(), op.name, s2.AttrNames()),
				ops:  []*Relation{r1m, r2m},
				hist: func(ops []*Relation) (*Relation, error) { return op.hist(ops[0], ops[1]) },
				flat: func(_ chronon.Time, snaps []*rel.Relation) (*rel.Relation, error) {
					o, err := inOrder(snaps[1], snaps[0])
					if err != nil {
						return nil, err
					}
					return op.flat(snaps[0], o)
				}})
		}
	}

	// θ-join and equijoin against a relation with disjoint attributes.
	sx := g.scheme("X", "XK", snapAttr("XA", value.Ints), snapAttr("XB", value.Strings))
	rx := g.world(sx, 2+g.rng.Intn(5)).relation(sx, func(int) lifespan.Lifespan { return g.lifespan() })
	for _, xa := range sx.Attrs {
		a1 := pick()
		if a1.Domain != xa.Domain {
			continue
		}
		th := thetas[g.rng.Intn(len(thetas))]
		cases = append(cases, snapCase{name: fmt.Sprintf("⋈ %s%s%s", a1.Name, th, xa.Name),
			ops:  []*Relation{r1, rx},
			hist: func(ops []*Relation) (*Relation, error) { return ThetaJoin(ops[0], ops[1], a1.Name, th, xa.Name) },
			flat: func(_ chronon.Time, snaps []*rel.Relation) (*rel.Relation, error) {
				return rel.ThetaJoin(snaps[0], snaps[1], a1.Name, th, xa.Name)
			}})
		cases = append(cases, snapCase{name: fmt.Sprintf("⋈ %s=%s", xa.Name, a1.Name),
			ops:  []*Relation{rx, r1},
			hist: func(ops []*Relation) (*Relation, error) { return EquiJoin(ops[0], ops[1], xa.Name, a1.Name) },
			flat: func(_ chronon.Time, snaps []*rel.Relation) (*rel.Relation, error) {
				return rel.ThetaJoin(snaps[0], snaps[1], xa.Name, value.EQ, a1.Name)
			}})
	}

	// Natural join with a relation sharing some of r1's non-key
	// attributes, listed in its own random order, both ways round.
	var shared []schema.Attribute
	for _, x := range s1.Attrs {
		if x.Name != "K" {
			shared = append(shared, x)
		}
	}
	sj := g.scheme("J", "JK", append(shared, snapAttr("D", value.Ints))...)
	if len(sj.CommonAttrs(s1)) > 0 {
		rj := g.world(sj, 2+g.rng.Intn(5)).relation(sj, func(int) lifespan.Lifespan { return g.lifespan() })
		for _, ops := range [][]*Relation{{r1, rj}, {rj, r1}} {
			cases = append(cases, snapCase{name: fmt.Sprintf("%v ⋈ %v", ops[0].scheme.AttrNames(), ops[1].scheme.AttrNames()),
				ops:  ops,
				hist: func(ops []*Relation) (*Relation, error) { return NaturalJoin(ops[0], ops[1]) },
				flat: func(_ chronon.Time, snaps []*rel.Relation) (*rel.Relation, error) {
					return rel.NaturalJoin(snaps[0], snaps[1])
				}})
		}
	}
	return cases
}

// checkSnapshotCommutes runs every case of one seed at every chronon.
func checkSnapshotCommutes(t *testing.T, seed int64) {
	t.Helper()
	for _, c := range snapCases(seed) {
		out, err := c.hist(c.ops)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, c.name, err)
		}
		for s := chronon.Time(0); s <= snapClock; s++ {
			snaps := make([]*rel.Relation, len(c.ops))
			for i, r := range c.ops {
				if snaps[i], err = Snapshot(r, s); err != nil {
					t.Fatalf("seed %d: %s: operand snapshot at %v: %v", seed, c.name, s, err)
				}
			}
			want, err := c.flat(s, snaps)
			if err != nil {
				t.Fatalf("seed %d: %s: classical operator at %v: %v", seed, c.name, s, err)
			}
			got, err := Snapshot(out, s)
			if err != nil {
				t.Fatalf("seed %d: %s: result snapshot at %v: %v", seed, c.name, s, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d: %s at %v: snapshot of the result\n%s\nclassical result\n%s\noperands:\n%v",
					seed, c.name, s, got, want, c.ops)
			}
		}
	}
}

// snapSeeds are the fixed seeds of TestSnapshotCommutes and the corpus
// of FuzzSnapshotCommutes.
const snapSeeds = 150

// TestSnapshotCommutes checks, for every pointwise operator, that taking
// a snapshot commutes with the operator at every chronon of the clock.
func TestSnapshotCommutes(t *testing.T) {
	for seed := int64(0); seed < snapSeeds; seed++ {
		checkSnapshotCommutes(t, seed)
	}
}

// FuzzSnapshotCommutes is TestSnapshotCommutes over fuzzed seeds.
func FuzzSnapshotCommutes(f *testing.F) {
	for seed := int64(0); seed < snapSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkSnapshotCommutes)
}
