package tfunc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// step is one maximal constant piece of the function: every t in Iv maps
// to V.
type step struct {
	Iv chronon.Interval
	V  value.Value
}

// Func is a partial function from T into a value domain, in canonical
// interval-coalesced form: steps are sorted, non-empty, non-overlapping,
// and adjacent steps with equal values are merged. The zero Func is the
// nowhere-defined function. Funcs are immutable, so a restriction that
// changes nothing returns its receiver, sharing its steps.
type Func struct {
	steps []step
}

// Builder accumulates (time, value) assignments and produces a canonical
// Func. Later assignments to the same chronon overwrite earlier ones,
// which gives update semantics for history construction.
type Builder struct {
	steps []step
}

// Set assigns f(t) = v for every t in [lo,hi].
func (b *Builder) Set(lo, hi chronon.Time, v value.Value) *Builder {
	if !v.IsValid() {
		panic("tfunc: Set with invalid value")
	}
	iv := chronon.NewInterval(lo, hi)
	if iv.IsEmpty() {
		return b
	}
	b.steps = append(b.steps, step{Iv: iv, V: v})
	return b
}

// SetAt assigns f(t) = v at the single chronon t.
func (b *Builder) SetAt(t chronon.Time, v value.Value) *Builder {
	return b.Set(t, t, v)
}

// Build canonicalizes the accumulated assignments. Later Set calls win
// where ranges overlap.
func (b *Builder) Build() Func {
	if len(b.steps) == 0 {
		return Func{}
	}
	// Assignments that arrive in time order without overlap — a history
	// built chronon range by range, for one — erase nothing, so layering
	// would rebuild them as they are, once per step.
	if inOrder(b.steps) {
		return canonical(b.steps)
	}
	// Apply assignments in order: each later step erases the overlapping
	// part of earlier ones. We process by layering: start from the first
	// and punch holes for subsequent ones.
	var acc []step
	for _, s := range b.steps {
		var next []step
		for _, old := range acc {
			if !old.Iv.Overlaps(s.Iv) {
				next = append(next, old)
				continue
			}
			// Keep the non-overlapped fragments of old.
			if old.Iv.Lo < s.Iv.Lo {
				next = append(next, step{Iv: chronon.NewInterval(old.Iv.Lo, s.Iv.Lo.Prev()), V: old.V})
			}
			if old.Iv.Hi > s.Iv.Hi {
				next = append(next, step{Iv: chronon.NewInterval(s.Iv.Hi.Next(), old.Iv.Hi), V: old.V})
			}
		}
		next = append(next, s)
		acc = next
	}
	return canonical(acc)
}

// inOrder reports whether each step starts after the previous one ends.
func inOrder(ss []step) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i].Iv.Lo <= ss[i-1].Iv.Hi {
			return false
		}
	}
	return true
}

// canonical sorts, validates disjointness and merges equal-valued
// adjacent steps.
func canonical(ss []step) Func {
	if len(ss) == 0 {
		return Func{}
	}
	slices.SortFunc(ss, func(a, b step) int { return cmp.Compare(a.Iv.Lo, b.Iv.Lo) })
	out := make([]step, 0, len(ss))
	out = append(out, ss[0])
	for _, s := range ss[1:] {
		last := &out[len(out)-1]
		if s.Iv.Lo <= last.Iv.Hi {
			panic(fmt.Sprintf("tfunc: overlapping steps %v and %v", last.Iv, s.Iv))
		}
		if mergeable(*last, s) {
			last.Iv.Hi = s.Iv.Hi
			continue
		}
		out = append(out, s)
	}
	return Func{steps: out}
}

// mergeable reports whether canonical form joins step b onto a: b
// starts right after a ends, with an equal value of the same kind.
func mergeable(a, b step) bool {
	return a.Iv.Adjacent(b.Iv) && a.V.Equal(b.V) && a.V.Kind() == b.V.Kind()
}

// Constant returns the function mapping every chronon of ls to v — a
// member of the paper's CD (constant-valued functions), as required for
// key attributes.
func Constant(ls lifespan.Lifespan, v value.Value) Func {
	if !v.IsValid() {
		panic("tfunc: Constant with invalid value")
	}
	ss := make([]step, ls.NumIntervals())
	for i := range ss {
		ss[i] = step{Iv: ls.IntervalAt(i), V: v}
	}
	return Func{steps: ss}
}

// At evaluates the function at t. The second result reports whether the
// function is defined there; per the paper, "undefined means that the
// attribute is not relevant at such times, and thus does not exist".
func (f Func) At(t chronon.Time) (value.Value, bool) {
	i := sort.Search(len(f.steps), func(i int) bool { return f.steps[i].Iv.Hi >= t })
	if i < len(f.steps) && f.steps[i].Iv.Contains(t) {
		return f.steps[i].V, true
	}
	return value.Value{}, false
}

// Domain returns the definition lifespan of the partial function — the
// set of chronons where it is defined.
func (f Func) Domain() lifespan.Lifespan {
	b := lifespan.NewBuilder(len(f.steps))
	for _, s := range f.steps {
		b.Add(s.Iv)
	}
	return b.Lifespan()
}

// DomainSubsetOf reports Domain(f) ⊆ L without building Domain(f): each
// step must lie inside one interval of the canonical L.
func (f Func) DomainSubsetOf(l lifespan.Lifespan) bool {
	j, n := 0, l.NumIntervals()
	for _, s := range f.steps {
		for j < n && l.IntervalAt(j).Hi < s.Iv.Lo {
			j++
		}
		if j == n || l.IntervalAt(j).Lo > s.Iv.Lo || l.IntervalAt(j).Hi < s.Iv.Hi {
			return false
		}
	}
	return true
}

// DomainEqual reports Domain(f) = L without building Domain(f): each
// run of abutting steps must be exactly the next interval of L.
func (f Func) DomainEqual(l lifespan.Lifespan) bool {
	k := 0
	for i := 0; i < len(f.steps); k++ {
		run := f.steps[i].Iv
		for i++; i < len(f.steps) && run.Adjacent(f.steps[i].Iv); i++ {
			run.Hi = f.steps[i].Iv.Hi
		}
		if k == l.NumIntervals() || l.IntervalAt(k) != run {
			return false
		}
	}
	return k == l.NumIntervals()
}

// IsNowhereDefined reports whether the function has empty domain.
func (f Func) IsNowhereDefined() bool { return len(f.steps) == 0 }

// NumSteps returns the number of maximal constant pieces — the
// representation-level size of the function, and the quantity the
// storage experiments (E10) count.
func (f Func) NumSteps() int { return len(f.steps) }

// StepAt returns the i-th maximal constant piece in ascending order,
// 0 <= i < NumSteps(): every chronon of iv maps to v. With NumSteps it
// lets a caller walk two functions side by side.
func (f Func) StepAt(i int) (iv chronon.Interval, v value.Value) {
	return f.steps[i].Iv, f.steps[i].V
}

// Restrict returns f|L, the restriction of f to the lifespan L (paper
// Section 3: "we will denote this restricted function by f|D'"). The
// result is defined on Domain(f) ∩ L.
//
// When L covers Domain(f) the result is f itself. Otherwise the steps
// are clipped in one pass into storage sized once. Clipping a canonical
// step list by a canonical lifespan only shrinks steps: it cannot
// reorder them, make them overlap, or make two equal values adjacent
// (pieces of one step are separated by L's gaps, pieces of different
// steps abut only where the steps did), so the result is canonical
// without canonical's sort and merge. The overlap check per appended
// piece still guards that argument.
func (f Func) Restrict(l lifespan.Lifespan) Func {
	g, _ := f.restrictInto(nil, l)
	return g
}

// RestrictAll replaces each function of fs with its restriction to l,
// as Restrict computes it, the restricted functions sharing one
// allocation of steps: the values of a tuple restricted together cost
// one allocation, not one per value. Functions l covers stay as they
// are.
func RestrictAll(fs []Func, l lifespan.Lifespan) {
	n := 0
	for _, f := range fs {
		if !f.IsNowhereDefined() && !f.DomainSubsetOf(l) {
			n += f.restrictCap(l)
		}
	}
	var buf []step
	if n > 0 {
		buf = make([]step, 0, n)
	}
	for i := range fs {
		fs[i], buf = fs[i].restrictInto(buf, l)
	}
}

// restrictSpan returns [lo,hi), the indexes of l's intervals that can
// meet f's steps.
func (f Func) restrictSpan(l lifespan.Lifespan) (lo, hi int) {
	n := l.NumIntervals()
	first, last := f.steps[0].Iv.Lo, f.steps[len(f.steps)-1].Iv.Hi
	lo = sort.Search(n, func(k int) bool { return l.IntervalAt(k).Hi >= first })
	hi = sort.Search(n, func(k int) bool { return l.IntervalAt(k).Lo > last })
	return lo, hi
}

// restrictCap bounds the steps of f|l: at most one piece per step plus
// one per extra interval of l cut out of the steps.
func (f Func) restrictCap(l lifespan.Lifespan) int {
	lo, hi := f.restrictSpan(l)
	return len(f.steps) + hi - lo - 1
}

// restrictInto computes f|l with its steps appended to buf — allocated,
// sized for f alone, at the first piece when buf is nil — and returns
// it with buf extended.
func (f Func) restrictInto(buf []step, l lifespan.Lifespan) (Func, []step) {
	if f.IsNowhereDefined() || l.IsEmpty() {
		return Func{}, buf
	}
	if f.DomainSubsetOf(l) {
		return f, buf
	}
	lo, hi := f.restrictSpan(l)
	start, j := len(buf), lo
	for _, s := range f.steps {
		for j < hi && l.IntervalAt(j).Hi < s.Iv.Lo {
			j++
		}
		for k := j; k < hi && l.IntervalAt(k).Lo <= s.Iv.Hi; k++ {
			piece := s.Iv.Intersect(l.IntervalAt(k))
			if buf == nil {
				buf = make([]step, 0, len(f.steps)+hi-lo-1)
			} else if len(buf) > start {
				if prev := buf[len(buf)-1].Iv; piece.Lo <= prev.Hi {
					panic(fmt.Sprintf("tfunc: overlapping steps %v and %v", prev, piece))
				}
			}
			buf = append(buf, step{Iv: piece, V: s.V})
		}
	}
	if len(buf) == start {
		return Func{}, buf
	}
	return Func{steps: buf[start:len(buf):len(buf)]}, buf
}

// Merge returns the union t1.v(A) ∪ t2.v(A) of two compatible partial
// functions, as used by the tuple merge operation (t1 + t2). The two
// functions must agree wherever both are defined; Merge reports an error
// otherwise (the paper's mergability condition 3).
func (f Func) Merge(g Func) (Func, error) {
	if f.IsNowhereDefined() {
		return g, nil
	}
	if g.IsNowhereDefined() {
		return f, nil
	}
	shared := f.Domain().Intersect(g.Domain())
	if !shared.IsEmpty() {
		// Verify pointwise agreement on the shared domain, stepwise.
		fr := f.Restrict(shared)
		gr := g.Restrict(shared)
		if !fr.Equal(gr) {
			return Func{}, fmt.Errorf("tfunc: functions contradict on %v", shared)
		}
	}
	// Build: g over f on g's domain, then f elsewhere. Since they agree on
	// the overlap, layering is safe.
	var b Builder
	for _, s := range f.steps {
		b.steps = append(b.steps, s)
	}
	for _, s := range g.steps {
		b.steps = append(b.steps, s)
	}
	return b.Build(), nil
}

// Equal reports extensional equality: same domain and same value at every
// chronon. Canonical form makes this a structural comparison.
func (f Func) Equal(g Func) bool {
	if len(f.steps) != len(g.steps) {
		return false
	}
	for i := range f.steps {
		if !f.steps[i].Iv.Equal(g.steps[i].Iv) {
			return false
		}
		a, b := f.steps[i].V, g.steps[i].V
		if a.Kind() != b.Kind() || !a.Equal(b) {
			return false
		}
	}
	return true
}

// IsConstant reports whether f belongs to CD — "functions having a
// constant image", i.e. the same value at every chronon of the domain.
// The nowhere-defined function is vacuously constant.
func (f Func) IsConstant() bool {
	for i := 1; i < len(f.steps); i++ {
		if !f.steps[i].V.Equal(f.steps[0].V) {
			return false
		}
	}
	return true
}

// ConstantValue returns the single value of a constant function. The
// second result is false for the nowhere-defined function. Panics if f is
// not constant.
func (f Func) ConstantValue() (value.Value, bool) {
	if !f.IsConstant() {
		panic("tfunc: ConstantValue on non-constant function")
	}
	if len(f.steps) == 0 {
		return value.Value{}, false
	}
	return f.steps[0].V, true
}

// Image returns the set of distinct values the function takes, in first-
// occurrence order. For a TT function this is "the set of times that
// t(A) maps to", which defines the dynamic TIME-SLICE.
func (f Func) Image() []value.Value {
	var out []value.Value
	for _, s := range f.steps {
		dup := false
		for _, v := range out {
			if v.Equal(s.V) && v.Kind() == s.V.Kind() {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s.V)
		}
	}
	return out
}

// TimeImage returns the image of a time-valued (TT) function as a
// lifespan — the parameter set of dynamic TIME-SLICE and TIME-JOIN. It
// errors if any value in the image is not a time.
func (f Func) TimeImage() (lifespan.Lifespan, error) {
	var ivs []chronon.Interval
	for _, s := range f.steps {
		if s.V.Kind() != value.KindTime {
			return lifespan.Lifespan{}, fmt.Errorf("tfunc: TimeImage on %s-valued function", s.V.Kind())
		}
		ivs = append(ivs, chronon.Point(s.V.AsTime()))
	}
	return lifespan.New(ivs...), nil
}

// Steps calls fn for each maximal constant piece in ascending order.
func (f Func) Steps(fn func(iv chronon.Interval, v value.Value) bool) {
	for _, s := range f.steps {
		if !fn(s.Iv, s.V) {
			return
		}
	}
}

// String renders the representation-level form, e.g.
// "{[1,5]→30000, [6,9]→34000}". Constant functions render as the paper's
// <lifespan,value> pair suggestion, e.g. "<{[1,9]},Codd>", whose
// lifespan is Domain(f). The nowhere-defined function renders as "{}".
func (f Func) String() string { return string(f.AppendForm(nil, value.Text)) }

// AppendForm appends the rendering of f in form fm to dst and returns
// the result; only its values differ between the forms.
//
// A constant function's lifespan is printed from its steps without
// building Domain(): canonical form merges adjacent steps with equal
// values of one kind, so the steps of a canonical constant function are
// exactly its domain's maximal intervals. The one exception is adjacent
// steps holding numerically equal values of different kinds (1 and
// 1.0), which IsConstant accepts and canonical keeps apart; the run
// loop below coalesces those, so the output is Domain(f) in every case.
func (f Func) AppendForm(dst []byte, fm value.Form) []byte {
	if f.IsNowhereDefined() {
		return append(dst, "{}"...)
	}
	if f.IsConstant() {
		dst = append(dst, "<{"...)
		for i := 0; i < len(f.steps); {
			iv := f.steps[i].Iv
			for i++; i < len(f.steps) && iv.Adjacent(f.steps[i].Iv); i++ {
				iv.Hi = f.steps[i].Iv.Hi
			}
			dst = iv.AppendTo(dst)
			if i < len(f.steps) {
				dst = append(dst, ',')
			}
		}
		dst = append(dst, "},"...)
		dst = f.steps[0].V.AppendForm(dst, fm)
		return append(dst, '>')
	}
	dst = append(dst, '{')
	for i, s := range f.steps {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = s.Iv.AppendTo(dst)
		dst = append(dst, "→"...)
		dst = s.V.AppendForm(dst, fm)
	}
	return append(dst, '}')
}
