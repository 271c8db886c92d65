package tfunc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/value"
)

func mk(pairs ...any) Func {
	// mk(lo, hi, value, lo, hi, value, ...)
	var b Builder
	for i := 0; i < len(pairs); i += 3 {
		b.Set(chronon.Time(pairs[i].(int)), chronon.Time(pairs[i+1].(int)), pairs[i+2].(value.Value))
	}
	return b.Build()
}

func TestBuilderCanonicalizes(t *testing.T) {
	f := mk(1, 5, value.Int(10), 6, 9, value.Int(10))
	if f.NumSteps() != 1 {
		t.Errorf("adjacent equal steps must coalesce: %v", f)
	}
	g := mk(1, 5, value.Int(10), 6, 9, value.Int(20))
	if g.NumSteps() != 2 {
		t.Errorf("distinct values must stay separate: %v", g)
	}
	// Later Set overwrites earlier on overlap.
	h := mk(1, 9, value.Int(10), 4, 6, value.Int(20))
	if v, ok := h.At(5); !ok || v.AsInt() != 20 {
		t.Errorf("overwrite failed: %v", h)
	}
	if v, ok := h.At(2); !ok || v.AsInt() != 10 {
		t.Errorf("unoverwritten region damaged: %v", h)
	}
	if v, ok := h.At(8); !ok || v.AsInt() != 10 {
		t.Errorf("tail region damaged: %v", h)
	}
	if h.NumSteps() != 3 {
		t.Errorf("expected 3 steps, got %d", h.NumSteps())
	}
}

func TestAtAndDomain(t *testing.T) {
	f := mk(1, 3, value.String_("a"), 7, 9, value.String_("b"))
	if _, ok := f.At(5); ok {
		t.Error("undefined in the gap")
	}
	if _, ok := f.At(0); ok {
		t.Error("undefined before start")
	}
	if v, ok := f.At(7); !ok || v.AsString() != "b" {
		t.Error("defined value wrong")
	}
	want := lifespan.MustParse("{[1,3],[7,9]}")
	if !f.Domain().Equal(want) {
		t.Errorf("Domain = %v, want %v", f.Domain(), want)
	}
	if !(Func{}).IsNowhereDefined() {
		t.Error("zero Func is nowhere defined")
	}
}

func TestConstant(t *testing.T) {
	ls := lifespan.MustParse("{[1,5],[9,12]}")
	f := Constant(ls, value.String_("Codd"))
	if !f.IsConstant() {
		t.Error("Constant must be constant")
	}
	if !f.Domain().Equal(ls) {
		t.Errorf("Constant domain = %v", f.Domain())
	}
	v, ok := f.ConstantValue()
	if !ok || v.AsString() != "Codd" {
		t.Error("ConstantValue wrong")
	}
	// Paper: constant values at the representation level are
	// <lifespan,value> pairs.
	if got := f.String(); got != `<{[1,5],[9,12]},"Codd">` {
		t.Errorf("String = %s", got)
	}
	g := mk(1, 2, value.Int(1), 5, 6, value.Int(2))
	if g.IsConstant() {
		t.Error("two-valued function is not constant")
	}
	if _, ok := (Func{}).ConstantValue(); ok {
		t.Error("nowhere-defined has no constant value")
	}
}

func TestRestrict(t *testing.T) {
	f := mk(1, 10, value.Int(1), 11, 20, value.Int(2))
	r := f.Restrict(lifespan.MustParse("{[5,15]}"))
	if !r.Domain().Equal(lifespan.MustParse("{[5,15]}")) {
		t.Errorf("restricted domain = %v", r.Domain())
	}
	if v, _ := r.At(5); v.AsInt() != 1 {
		t.Error("value preserved at 5")
	}
	if v, _ := r.At(15); v.AsInt() != 2 {
		t.Error("value preserved at 15")
	}
	if _, ok := r.At(16); ok {
		t.Error("restriction must cut the tail")
	}
	if !f.Restrict(lifespan.Empty()).IsNowhereDefined() {
		t.Error("restrict to ∅ is nowhere defined")
	}
	if !f.Restrict(lifespan.All()).Equal(f) {
		t.Error("restrict to T is identity")
	}
	// Restriction to disconnected lifespan.
	r2 := f.Restrict(lifespan.MustParse("{[1,2],[19,20]}"))
	if r2.NumSteps() != 2 || !r2.Domain().Equal(lifespan.MustParse("{[1,2],[19,20]}")) {
		t.Errorf("disconnected restriction = %v", r2)
	}
}

func TestMerge(t *testing.T) {
	f := mk(1, 5, value.Int(30000))
	g := mk(9, 12, value.Int(34000))
	m, err := f.Merge(g)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Domain().Equal(lifespan.MustParse("{[1,5],[9,12]}")) {
		t.Errorf("merged domain = %v", m.Domain())
	}
	// Agreement on overlap is fine.
	h := mk(3, 8, value.Int(30000))
	if _, err := f.Merge(h); err != nil {
		t.Errorf("agreeing overlap must merge: %v", err)
	}
	// Contradiction is an error (paper mergability condition 3).
	bad := mk(3, 8, value.Int(99))
	if _, err := f.Merge(bad); err == nil {
		t.Error("contradicting merge must fail")
	}
	// Identity cases.
	if m2, err := f.Merge(Func{}); err != nil || !m2.Equal(f) {
		t.Error("merge with nowhere-defined is identity")
	}
	if m3, err := (Func{}).Merge(f); err != nil || !m3.Equal(f) {
		t.Error("merge with nowhere-defined is identity (left)")
	}
}

func TestImage(t *testing.T) {
	f := mk(1, 2, value.Int(5), 3, 4, value.Int(7), 5, 6, value.Int(5))
	img := f.Image()
	if len(img) != 2 || img[0].AsInt() != 5 || img[1].AsInt() != 7 {
		t.Errorf("Image = %v", img)
	}
}

func TestTimeImage(t *testing.T) {
	// A TT function: e.g. attribute "REVIEW-DATE" mapping each chronon to
	// some other chronon.
	f := mk(1, 3, value.TimeVal(10), 4, 6, value.TimeVal(11), 7, 8, value.TimeVal(20))
	img, err := f.TimeImage()
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(lifespan.MustParse("{[10,11],20}")) {
		t.Errorf("TimeImage = %v", img)
	}
	g := mk(1, 2, value.Int(5))
	if _, err := g.TimeImage(); err == nil {
		t.Error("TimeImage of non-TT function must error")
	}
}

func TestEqual(t *testing.T) {
	a := mk(1, 5, value.Int(1))
	b := mk(1, 5, value.Int(1))
	c := mk(1, 5, value.Int(2))
	d := mk(1, 4, value.Int(1))
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal misbehaves")
	}
	// Kind-sensitive: Int(1) over [1,5] differs from Float(1) over [1,5]
	// extensionally under kind-aware equality.
	e := mk(1, 5, value.Float(1))
	if a.Equal(e) {
		t.Error("Equal must distinguish kinds")
	}
}

func TestStepsIteration(t *testing.T) {
	f := mk(1, 2, value.Int(1), 4, 5, value.Int(2), 7, 8, value.Int(3))
	var n int
	f.Steps(func(iv chronon.Interval, v value.Value) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop saw %d steps", n)
	}
}

func TestDiscreteInterp(t *testing.T) {
	f := mk(1, 5, value.Int(1))
	if _, err := (Discrete{}).Interpolate(f, lifespan.MustParse("{[1,3]}")); err != nil {
		t.Errorf("subset target must succeed: %v", err)
	}
	if _, err := (Discrete{}).Interpolate(f, lifespan.MustParse("{[1,9]}")); err == nil {
		t.Error("target beyond domain must fail for discrete")
	}
	g, err := (Discrete{}).Interpolate(f, lifespan.MustParse("{[2,4]}"))
	if err != nil || !g.Domain().Equal(lifespan.MustParse("{[2,4]}")) {
		t.Errorf("discrete restriction wrong: %v, %v", g, err)
	}
}

func TestStepWiseInterp(t *testing.T) {
	// Salary history: stored at change points only.
	f := mk(1, 1, value.Int(30000), 5, 5, value.Int(34000))
	total, err := (StepWise{}).Interpolate(f, lifespan.MustParse("{[1,9]}"))
	if err != nil {
		t.Fatal(err)
	}
	for tm, want := range map[chronon.Time]int64{1: 30000, 3: 30000, 4: 30000, 5: 34000, 9: 34000} {
		if v, ok := total.At(tm); !ok || v.AsInt() != want {
			t.Errorf("At(%v) = %v, want %d", tm, v, want)
		}
	}
	if _, err := (StepWise{}).Interpolate(f, lifespan.MustParse("{[0,9]}")); err == nil {
		t.Error("target before first stored value must fail")
	}
	if _, err := (StepWise{}).Interpolate(Func{}, lifespan.MustParse("{[1,2]}")); err == nil {
		t.Error("nowhere-defined input must fail")
	}
	if g, err := (StepWise{}).Interpolate(f, lifespan.Empty()); err != nil || !g.IsNowhereDefined() {
		t.Error("empty target yields nowhere-defined")
	}
}

func TestLinearInterp(t *testing.T) {
	// Stock price sampled at 0 and 10.
	f := mk(0, 0, value.Int(100), 10, 10, value.Int(200))
	total, err := (Linear{}).Interpolate(f, lifespan.MustParse("{[0,12]}"))
	if err != nil {
		t.Fatal(err)
	}
	for tm, want := range map[chronon.Time]int64{0: 100, 5: 150, 10: 200, 12: 200} {
		if v, ok := total.At(tm); !ok || v.AsInt() != want {
			t.Errorf("At(%v) = %v, want %d", tm, v, want)
		}
	}
	// Float version.
	g := mk(0, 0, value.Float(1.0), 4, 4, value.Float(2.0))
	tg, err := (Linear{}).Interpolate(g, lifespan.MustParse("{[0,4]}"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tg.At(2); v.AsFloat() != 1.5 {
		t.Errorf("linear float midpoint = %v", v)
	}
	// Non-numeric is an error.
	s := mk(0, 0, value.String_("a"), 4, 4, value.String_("b"))
	if _, err := (Linear{}).Interpolate(s, lifespan.MustParse("{[0,4]}")); err == nil {
		t.Error("linear over strings must fail")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"discrete", "step", "linear"} {
		ip, err := ByName(n)
		if err != nil || ip.Name() != n {
			t.Errorf("ByName(%q) = %v, %v", n, ip, err)
		}
	}
	if _, err := ByName("spline"); err == nil {
		t.Error("unknown interpolator must fail")
	}
}

func genFunc(seed int64) Func {
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		lo := chronon.Time(rng.Intn(50))
		hi := lo + chronon.Time(rng.Intn(8))
		b.Set(lo, hi, value.Int(int64(rng.Intn(4))))
	}
	return b.Build()
}

func genLS(seed int64) lifespan.Lifespan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var ivs []chronon.Interval
	for i := 0; i < rng.Intn(4); i++ {
		lo := chronon.Time(rng.Intn(50))
		ivs = append(ivs, chronon.NewInterval(lo, lo+chronon.Time(rng.Intn(10))))
	}
	return lifespan.New(ivs...)
}

func TestFuncProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	props := []struct {
		name string
		fn   any
	}{
		{"restrict domain is intersection", func(a, b int64) bool {
			f, l := genFunc(a), genLS(b)
			return f.Restrict(l).Domain().Equal(f.Domain().Intersect(l))
		}},
		{"restrict preserves values", func(a, b int64, pt uint8) bool {
			f, l := genFunc(a), genLS(b)
			p := chronon.Time(pt % 60)
			rv, rok := f.Restrict(l).At(p)
			fv, fok := f.At(p)
			if !l.Contains(p) {
				return !rok
			}
			return rok == fok && (!rok || rv.Equal(fv))
		}},
		{"restrict is idempotent", func(a, b int64) bool {
			f, l := genFunc(a), genLS(b)
			r := f.Restrict(l)
			return r.Restrict(l).Equal(r)
		}},
		{"merge with self is identity", func(a int64) bool {
			f := genFunc(a)
			m, err := f.Merge(f)
			return err == nil && m.Equal(f)
		}},
		{"merge of disjoint restrictions restores", func(a, b int64) bool {
			f, l := genFunc(a), genLS(b)
			left := f.Restrict(l)
			right := f.Restrict(l.Complement())
			m, err := left.Merge(right)
			return err == nil && m.Equal(f)
		}},
		{"builder output canonical: roundtrip through steps", func(a int64) bool {
			f := genFunc(a)
			var b Builder
			f.Steps(func(iv chronon.Interval, v value.Value) bool {
				b.Set(iv.Lo, iv.Hi, v)
				return true
			})
			return b.Build().Equal(f)
		}},
	}
	for _, p := range props {
		if err := quick.Check(p.fn, cfg); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

func TestBuilderInvalidValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set with invalid value must panic")
		}
	}()
	var b Builder
	b.Set(1, 2, value.Value{})
}

// TestConstantStepsAreDomainIntervals states the rule String relies on
// to print a constant function without building Domain(): the steps of
// a canonical constant function are exactly its domain's maximal
// intervals, whether it was built, restricted or merged. Adjacent steps
// holding numerically equal values of different kinds are the one case
// canonical keeps apart; String still prints the domain for it.
func TestConstantStepsAreDomainIntervals(t *testing.T) {
	v := value.String_("Codd")
	constant := func(seed int64) Func {
		var b Builder
		for _, iv := range genLS(seed).Union(genLS(seed + 1)).Intervals() {
			// Split each interval so the builder sees adjacent pieces.
			mid := iv.Lo + (iv.Hi-iv.Lo)/2
			b.Set(iv.Lo, mid, v).Set(mid.Next(), iv.Hi, v)
		}
		return b.Build()
	}
	check := func(f Func) bool {
		var steps []chronon.Interval
		f.Steps(func(iv chronon.Interval, _ value.Value) bool {
			steps = append(steps, iv)
			return true
		})
		dom := f.Domain().Intervals()
		if len(steps) != len(dom) {
			return false
		}
		for i := range steps {
			if !steps[i].Equal(dom[i]) {
				return false
			}
		}
		return f.IsNowhereDefined() || f.String() == "<"+f.Domain().String()+","+v.String()+">"
	}
	props := map[string]any{
		"built":      func(a int64) bool { return check(constant(a)) },
		"restricted": func(a, b int64) bool { return check(constant(a).Restrict(genLS(b))) },
		"merged": func(a, b int64) bool {
			f, l := constant(a), genLS(b)
			m, err := f.Restrict(l).Merge(f.Restrict(l.Complement()))
			return err == nil && check(m)
		},
	}
	for name, p := range props {
		if err := quick.Check(p, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	mixed := (&Builder{}).Set(0, 4, value.Int(1)).Set(5, 9, value.Float(1)).Build()
	if mixed.NumSteps() != 2 || !mixed.IsConstant() {
		t.Fatalf("mixed-kind fixture: %d steps, constant %v", mixed.NumSteps(), mixed.IsConstant())
	}
	if got, want := mixed.String(), "<{[0,9]},1>"; got != want {
		t.Errorf("mixed-kind constant renders %q, want %q", got, want)
	}
}

// clip is the reference restriction: every piece of every step inside
// L, in step order, before canonicalization.
func clip(f Func, l lifespan.Lifespan) []step {
	var out []step
	for _, s := range f.steps {
		for _, iv := range l.Intervals() {
			if p := s.Iv.Intersect(iv); !p.IsEmpty() {
				out = append(out, step{Iv: p, V: s.V})
			}
		}
	}
	return out
}

// isCanonical reports whether f's steps are sorted, non-empty and
// disjoint, with no two abutting steps holding equal values of one kind.
func isCanonical(f Func) bool {
	for i, s := range f.steps {
		if s.Iv.IsEmpty() {
			return false
		}
		if i == 0 {
			continue
		}
		prev := f.steps[i-1]
		if s.Iv.Lo <= prev.Iv.Hi || prev.Iv.Adjacent(s.Iv) && prev.V.Equal(s.V) && prev.V.Kind() == s.V.Kind() {
			return false
		}
	}
	return true
}

// fuzzFunc builds a Func through Builder from byte triples (start,
// length, value) on a 64-chronon clock. Values are Int(0..2) and
// Float(0..2), so numerically equal steps of different kinds — which
// canonical keeps apart — sit next to each other.
func fuzzFunc(spec []byte) Func {
	var b Builder
	for i := 0; i+2 < len(spec); i += 3 {
		lo := chronon.Time(spec[i] % 64)
		v := value.Int(int64(spec[i+2] % 3))
		if spec[i+2]&4 != 0 {
			v = value.Float(float64(spec[i+2] % 3))
		}
		b.Set(lo, lo+chronon.Time(spec[i+1]%8), v)
	}
	return b.Build()
}

// fuzzLS is the lifespan of the chronons i in [0,63] whose bit i is set
// in m.
func fuzzLS(m uint64) lifespan.Lifespan {
	b := lifespan.NewBuilder(32)
	for i := range 64 {
		if m&(1<<i) != 0 {
			b.Add(chronon.Point(chronon.Time(i)))
		}
	}
	return b.Lifespan()
}

// FuzzRestrict checks Restrict against canonical(clip(f, L)) and the
// allocation-free domain tests against Domain().
func FuzzRestrict(f *testing.F) {
	f.Add([]byte{0, 4, 1, 5, 4, 5}, uint64(0xffff)) // 1 then 1.0, abutting
	f.Add([]byte{0, 7, 1, 8, 7, 2, 16, 3, 1}, uint64(0x0f0f0f))
	f.Add([]byte{}, ^uint64(0))
	f.Add([]byte{3, 2, 0}, uint64(0))
	f.Fuzz(func(t *testing.T, spec []byte, m uint64) {
		fn, l := fuzzFunc(spec), fuzzLS(m)
		got, want := fn.Restrict(l), canonical(clip(fn, l))
		if !got.Equal(want) || !isCanonical(got) {
			t.Errorf("%v|%v = %v, want %v", fn, l, got, want)
		}
		if g, w := fn.DomainSubsetOf(l), fn.Domain().SubsetOf(l); g != w {
			t.Errorf("DomainSubsetOf(%v) = %v for %v, want %v", l, g, fn, w)
		}
		if g, w := fn.DomainEqual(l), fn.Domain().Equal(l); g != w {
			t.Errorf("DomainEqual(%v) = %v for %v, want %v", l, g, fn, w)
		}
		if d := got.Domain(); !got.DomainEqual(d) || !d.Equal(fn.Domain().Intersect(l)) {
			t.Errorf("domain of %v is %v", got, d)
		}
	})
}

// TestRestrictCoveredAllocatesNothing checks that restricting to a
// lifespan covering the domain returns the function itself, for free.
func TestRestrictCoveredAllocatesNothing(t *testing.T) {
	f := mk(1, 5, value.Int(1), 6, 9, value.Int(2), 12, 14, value.Int(1))
	for _, l := range []lifespan.Lifespan{lifespan.All(), lifespan.MustParse("{[0,9],[11,20]}")} {
		if !f.Restrict(l).Equal(f) {
			t.Errorf("%v|%v = %v", f, l, f.Restrict(l))
		}
		if n := testing.AllocsPerRun(100, func() { f.Restrict(l) }); n != 0 {
			t.Errorf("%v|%v: %.0f allocations, want 0", f, l, n)
		}
	}
	part := lifespan.MustParse("{[3,7],[13,20]}")
	if n := testing.AllocsPerRun(100, func() { f.Restrict(part) }); n != 1 {
		t.Errorf("a clipping restriction allocates %.0f times, want once", n)
	}
}

// TestRestrictAllMatchesRestrict checks RestrictAll against Restrict of
// each function, on functions the fuzz decoders build from every
// combination of a few specs and lifespans, and that the whole set
// restricts in at most one allocation.
func TestRestrictAllMatchesRestrict(t *testing.T) {
	specs := [][]byte{{0, 4, 1, 5, 4, 5}, {0, 7, 1, 8, 7, 2, 16, 3, 1}, {}, {3, 2, 0}, {1, 30, 2, 2, 9, 1}}
	for _, m := range []uint64{0, 0xffff, 0x0f0f0f, 0xf0f0f0f0, ^uint64(0)} {
		l := fuzzLS(m)
		fs := make([]Func, len(specs))
		for i, spec := range specs {
			fs[i] = fuzzFunc(spec)
		}
		got := append([]Func(nil), fs...)
		RestrictAll(got, l)
		for i, f := range fs {
			if want := f.Restrict(l); !got[i].Equal(want) || !isCanonical(got[i]) {
				t.Errorf("RestrictAll: %v|%v = %v, want %v", f, l, got[i], want)
			}
		}
		buf := make([]Func, len(fs))
		if n := testing.AllocsPerRun(100, func() { copy(buf, fs); RestrictAll(buf, l) }); n > 1 {
			t.Errorf("RestrictAll to %v: %.0f allocations, want at most 1", l, n)
		}
	}
}
