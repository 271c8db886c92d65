package lifespan

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/chronon"
)

func TestCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		in   Lifespan
		want string
	}{
		{"empty", New(), "{}"},
		{"single", Interval(1, 5), "{[1,5]}"},
		{"point", Point(3), "{3}"},
		{"merge overlap", New(chronon.NewInterval(1, 5), chronon.NewInterval(3, 9)), "{[1,9]}"},
		{"merge adjacent", New(chronon.NewInterval(1, 3), chronon.NewInterval(4, 7)), "{[1,7]}"},
		{"keep gap", New(chronon.NewInterval(1, 3), chronon.NewInterval(5, 7)), "{[1,3],[5,7]}"},
		{"unsorted input", New(chronon.NewInterval(8, 9), chronon.NewInterval(1, 2)), "{[1,2],[8,9]}"},
		{"drop empty", New(chronon.EmptyInterval(), chronon.NewInterval(1, 2)), "{[1,2]}"},
		{"contained", New(chronon.NewInterval(1, 9), chronon.NewInterval(3, 4)), "{[1,9]}"},
		{"points coalesce", New(chronon.Point(1), chronon.Point(2), chronon.Point(3), chronon.Point(7)), "{[1,3],7}"},
		{"duplicate points", New(chronon.Point(4), chronon.Point(4), chronon.Point(4)), "{4}"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	l := MustParse("{[1,3],[7,9],15}")
	for _, in := range []chronon.Time{1, 2, 3, 7, 8, 9, 15} {
		if !l.Contains(in) {
			t.Errorf("%v should contain %v", l, in)
		}
	}
	for _, out := range []chronon.Time{0, 4, 5, 6, 10, 14, 16, -3} {
		if l.Contains(out) {
			t.Errorf("%v should not contain %v", l, out)
		}
	}
	if Empty().Contains(0) {
		t.Error("empty lifespan contains nothing")
	}
}

func TestDurationMinMaxSpan(t *testing.T) {
	l := MustParse("{[1,3],[7,9],15}")
	if l.Duration() != 7 {
		t.Errorf("Duration = %d, want 7", l.Duration())
	}
	if l.Min() != 1 || l.Max() != 15 {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	if !l.Span().Equal(chronon.NewInterval(1, 15)) {
		t.Errorf("Span = %v", l.Span())
	}
	if l.NumIntervals() != 3 {
		t.Errorf("NumIntervals = %d, want 3", l.NumIntervals())
	}
	defer func() {
		if recover() == nil {
			t.Error("Min of empty lifespan should panic")
		}
	}()
	Empty().Min()
}

func TestUnion(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"{[1,3]}", "{[5,7]}", "{[1,3],[5,7]}"},
		{"{[1,3]}", "{[4,7]}", "{[1,7]}"},
		{"{[1,5]}", "{[3,7]}", "{[1,7]}"},
		{"{}", "{[3,7]}", "{[3,7]}"},
		{"{[1,3],[9,12]}", "{[2,10]}", "{[1,12]}"},
		{"{1,3,5}", "{2,4}", "{[1,5]}"},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Union(b).String(); got != c.want {
			t.Errorf("%s ∪ %s = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := b.Union(a).String(); got != c.want {
			t.Errorf("union must commute: %s ∪ %s = %s, want %s", c.b, c.a, got, c.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"{[1,5]}", "{[3,9]}", "{[3,5]}"},
		{"{[1,5]}", "{[6,9]}", "{}"},
		{"{[1,10]}", "{[2,3],[5,6],[9,12]}", "{[2,3],[5,6],[9,10]}"},
		{"{[1,3],[7,9]}", "{[2,8]}", "{[2,3],[7,8]}"},
		{"{}", "{[1,5]}", "{}"},
		{"{[1,3],[5,7],[9,11]}", "{[3,5],[7,9]}", "{3,5,7,9}"},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Intersect(b).String(); got != MustParse(c.want).String() {
			t.Errorf("%s ∩ %s = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := b.Intersect(a); !got.Equal(a.Intersect(b)) {
			t.Errorf("intersection must commute for %s, %s", c.a, c.b)
		}
	}
}

func TestMinus(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"{[1,9]}", "{[3,5]}", "{[1,2],[6,9]}"},
		{"{[1,9]}", "{[1,9]}", "{}"},
		{"{[1,9]}", "{[0,20]}", "{}"},
		{"{[1,9]}", "{}", "{[1,9]}"},
		{"{[1,9]}", "{1}", "{[2,9]}"},
		{"{[1,9]}", "{9}", "{[1,8]}"},
		{"{[1,9]}", "{5}", "{[1,4],[6,9]}"},
		{"{[1,3],[7,9]}", "{[2,8]}", "{1,9}"},
		{"{[1,20]}", "{[2,3],[5,6],[9,12]}", "{1,4,[7,8],[13,20]}"},
		{"{}", "{[1,5]}", "{}"},
		{"{[1,3]}", "{[5,9]}", "{[1,3]}"},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Minus(b).String(); got != MustParse(c.want).String() {
			t.Errorf("%s − %s = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestComplement(t *testing.T) {
	l := MustParse("{[1,5]}")
	c := l.Complement()
	if c.Contains(3) {
		t.Error("complement must not contain member")
	}
	if !c.Contains(0) || !c.Contains(6) || !c.Contains(chronon.Min) || !c.Contains(chronon.Max) {
		t.Error("complement should contain non-members out to the universe bounds")
	}
	if !l.Complement().Complement().Equal(l) {
		t.Error("double complement is identity")
	}
	if !Empty().Complement().Equal(All()) {
		t.Error("∅ complement is T")
	}
}

func TestSubsetOverlaps(t *testing.T) {
	a := MustParse("{[2,4]}")
	b := MustParse("{[1,9]}")
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("subset misbehaves")
	}
	if !a.SubsetOf(a) {
		t.Error("subset is reflexive")
	}
	if !Empty().SubsetOf(a) {
		t.Error("∅ ⊆ anything")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlap misbehaves")
	}
	if a.Overlaps(MustParse("{[5,9]}")) {
		t.Error("[2,4] does not overlap [5,9]")
	}
	if Empty().Overlaps(a) {
		t.Error("∅ overlaps nothing")
	}
}

func TestEachAndTimes(t *testing.T) {
	l := MustParse("{[1,3],7}")
	want := []chronon.Time{1, 2, 3, 7}
	if got := l.Times(); !reflect.DeepEqual(got, want) {
		t.Errorf("Times = %v, want %v", got, want)
	}
	// Early termination.
	var seen []chronon.Time
	l.Each(func(t chronon.Time) bool {
		seen = append(seen, t)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []chronon.Time{1, 2}) {
		t.Errorf("Each early stop saw %v", seen)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "[1,2]", "{[1,2}", "{[a,b]}", "{1;2}"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// Round-trip through String.
	for _, s := range []string{"{}", "{[1,5]}", "{[1,3],[7,9],15}", "{[-inf,3]}"} {
		l := MustParse(s)
		back := MustParse(l.String())
		if !back.Equal(l) {
			t.Errorf("round trip failed for %s: %s", s, back)
		}
	}
}

// genLifespan builds a random lifespan from a seed, for property tests.
func genLifespan(seed int64) Lifespan {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(5)
	ivs := make([]chronon.Interval, 0, n)
	for i := 0; i < n; i++ {
		lo := chronon.Time(rng.Intn(60) - 30)
		hi := lo + chronon.Time(rng.Intn(10))
		ivs = append(ivs, chronon.NewInterval(lo, hi))
	}
	return New(ivs...)
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	type prop struct {
		name string
		fn   any
	}
	props := []prop{
		{"union commutes", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Union(y).Equal(y.Union(x))
		}},
		{"union associates", func(a, b, c int64) bool {
			x, y, z := genLifespan(a), genLifespan(b), genLifespan(c)
			return x.Union(y).Union(z).Equal(x.Union(y.Union(z)))
		}},
		{"intersect associates", func(a, b, c int64) bool {
			x, y, z := genLifespan(a), genLifespan(b), genLifespan(c)
			return x.Intersect(y).Intersect(z).Equal(x.Intersect(y.Intersect(z)))
		}},
		{"intersect distributes over union", func(a, b, c int64) bool {
			x, y, z := genLifespan(a), genLifespan(b), genLifespan(c)
			return x.Intersect(y.Union(z)).Equal(x.Intersect(y).Union(x.Intersect(z)))
		}},
		{"union distributes over intersect", func(a, b, c int64) bool {
			x, y, z := genLifespan(a), genLifespan(b), genLifespan(c)
			return x.Union(y.Intersect(z)).Equal(x.Union(y).Intersect(x.Union(z)))
		}},
		{"de morgan", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Union(y).Complement().Equal(x.Complement().Intersect(y.Complement()))
		}},
		{"difference via intersection with complement", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Minus(y).Equal(x.Intersect(y.Complement()))
		}},
		{"minus then union restores subset", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Minus(y).Union(x.Intersect(y)).Equal(x)
		}},
		{"absorption", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Union(x.Intersect(y)).Equal(x) && x.Intersect(x.Union(y)).Equal(x)
		}},
		{"duration adds up", func(a, b int64) bool {
			x, y := genLifespan(a), genLifespan(b)
			return x.Union(y).Duration()+x.Intersect(y).Duration() == x.Duration()+y.Duration()
		}},
		{"membership agrees with ops", func(a, b int64, pt int8) bool {
			x, y := genLifespan(a), genLifespan(b)
			p := chronon.Time(pt)
			inU := x.Union(y).Contains(p) == (x.Contains(p) || y.Contains(p))
			inI := x.Intersect(y).Contains(p) == (x.Contains(p) && y.Contains(p))
			inM := x.Minus(y).Contains(p) == (x.Contains(p) && !y.Contains(p))
			return inU && inI && inM
		}},
		{"canonical form is stable", func(a int64) bool {
			x := genLifespan(a)
			y, err := Parse(x.String())
			return err == nil && y.Equal(x) && y.String() == x.String()
		}},
	}
	for _, p := range props {
		if err := quick.Check(p.fn, cfg); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

func TestFigure6Scenario(t *testing.T) {
	// Figure 6 of the paper: the lifespan of attribute
	// DAILY-TRADING-VOLUME is [t1,t2] ∪ [t3,NOW] — recorded, dropped as
	// too expensive, then re-added from a cheap outside source.
	t1, t2, t3 := chronon.Time(10), chronon.Time(20), chronon.Time(30)
	now := chronon.Time(40)
	ls := Interval(t1, t2).Union(Interval(t3, now))
	if ls.NumIntervals() != 2 {
		t.Fatalf("Figure 6 lifespan should have two intervals, got %v", ls)
	}
	if ls.Contains(25) {
		t.Error("attribute was dropped during (t2,t3)")
	}
	if !ls.Contains(15) || !ls.Contains(35) {
		t.Error("attribute defined during both recording periods")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(4)
	for _, iv := range []chronon.Interval{
		chronon.NewInterval(1, 3), chronon.NewInterval(4, 6), chronon.EmptyInterval(),
		chronon.Point(9), chronon.NewInterval(10, 12), chronon.NewInterval(20, 20),
	} {
		b.Add(iv)
	}
	if got := b.Lifespan().String(); got != "{[1,6],[9,12],20}" {
		t.Errorf("built %s, want {[1,6],[9,12],20}", got)
	}
	if got := b.Lifespan(); !got.IsEmpty() {
		t.Errorf("Lifespan must reset the builder, got %v", got)
	}
	for _, bad := range []chronon.Interval{chronon.NewInterval(5, 7), chronon.Point(3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) after [3,5] must panic", bad)
				}
			}()
			var b Builder
			b.Add(chronon.NewInterval(3, 5))
			b.Add(bad)
		}()
	}
}

func TestIntervalAt(t *testing.T) {
	l := MustParse("{[1,3],[7,9],15}")
	ivs := l.Intervals()
	for i := range l.NumIntervals() {
		if l.IntervalAt(i) != ivs[i] {
			t.Errorf("IntervalAt(%d) = %v, want %v", i, l.IntervalAt(i), ivs[i])
		}
	}
}

// TestIntersectReturnsCoveredOperand checks that an intersection equal
// to one operand is that operand, allocated for by nobody, and that
// SubsetOf never allocates.
func TestIntersectReturnsCoveredOperand(t *testing.T) {
	tl := MustParse("{[3,5],[9,12]}")
	for _, cover := range []Lifespan{All(), Interval(0, 20), MustParse("{[1,6],[8,12]}")} {
		if got := tl.Intersect(cover); !got.Equal(tl) {
			t.Errorf("%v ∩ %v = %v", tl, cover, got)
		}
		if got := cover.Intersect(tl); !got.Equal(tl) {
			t.Errorf("%v ∩ %v = %v", cover, tl, got)
		}
		if n := testing.AllocsPerRun(100, func() { tl.Intersect(cover); cover.Intersect(tl) }); n != 0 {
			t.Errorf("%v ∩ %v: %.0f allocations, want 0", tl, cover, n)
		}
		if n := testing.AllocsPerRun(100, func() { tl.SubsetOf(cover); cover.SubsetOf(tl) }); n != 0 {
			t.Errorf("SubsetOf %v: %.0f allocations, want 0", cover, n)
		}
	}
	part := Interval(4, 10)
	if n := testing.AllocsPerRun(100, func() { tl.Intersect(part) }); n != 1 {
		t.Errorf("a partial intersection allocates %.0f times, want once", n)
	}
}

// fromMask is the lifespan of the chronons i in [0,63] whose bit i is
// set in m: the reference representation of FuzzSetOps.
func fromMask(m uint64) Lifespan {
	var ivs []chronon.Interval
	for i := range 64 {
		if m&(1<<i) != 0 {
			ivs = append(ivs, chronon.Point(chronon.Time(i)))
		}
	}
	return New(ivs...)
}

// mask is fromMask's inverse for lifespans inside [0,63].
func mask(l Lifespan) uint64 {
	var m uint64
	l.Each(func(t chronon.Time) bool {
		m |= 1 << t
		return true
	})
	return m
}

// canonicalForm reports whether l's intervals are sorted, non-empty,
// disjoint and non-adjacent.
func canonicalForm(l Lifespan) bool {
	for i, iv := range l.ivs {
		if iv.IsEmpty() || i > 0 && iv.Lo <= l.ivs[i-1].Hi.Next() {
			return false
		}
	}
	return true
}

// FuzzSetOps checks Intersect, SubsetOf, Union and Minus against set
// algebra on chronon bitmasks over a 64-chronon clock.
func FuzzSetOps(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xf0f0), uint64(0xff00))
	f.Add(uint64(0x0ff0), uint64(0xffff))
	f.Add(^uint64(0), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := fromMask(a), fromMask(b)
		for _, c := range []struct {
			op   string
			got  Lifespan
			want uint64
		}{
			{"∩", x.Intersect(y), a & b},
			{"∪", x.Union(y), a | b},
			{"−", x.Minus(y), a &^ b},
		} {
			if mask(c.got) != c.want || !canonicalForm(c.got) || !c.got.Equal(fromMask(c.want)) {
				t.Errorf("%v %s %v = %v, want %v", x, c.op, y, c.got, fromMask(c.want))
			}
		}
		if got, want := x.SubsetOf(y), a&^b == 0; got != want {
			t.Errorf("%v ⊆ %v = %v, want %v", x, y, got, want)
		}
	})
}
