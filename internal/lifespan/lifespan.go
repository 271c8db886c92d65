package lifespan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/chronon"
)

// Lifespan is a subset of the time domain T, kept in canonical form: a
// sorted slice of non-empty, non-overlapping, non-adjacent closed
// intervals. The zero value is the empty lifespan. Lifespans are
// immutable, so an operation whose result equals an operand returns that
// operand, sharing its storage, instead of a copy.
type Lifespan struct {
	ivs []chronon.Interval
}

// Empty returns the empty lifespan ∅.
func Empty() Lifespan { return Lifespan{} }

// All returns the lifespan covering the entire (machine-bounded) time
// universe T. It plays the role of T itself, e.g. as the default L
// parameter of SELECT-IF ("If L = T ... s ∈ (L ∩ t.l) is equivalent to
// s ∈ t.l").
func All() Lifespan {
	return Lifespan{ivs: []chronon.Interval{chronon.NewInterval(chronon.Min, chronon.Max)}}
}

// New builds a lifespan from any collection of intervals, canonicalizing
// overlaps, adjacency and empties.
func New(ivs ...chronon.Interval) Lifespan {
	return fromIntervals(ivs)
}

// Interval returns the single-interval lifespan [lo,hi].
func Interval(lo, hi chronon.Time) Lifespan {
	return New(chronon.NewInterval(lo, hi))
}

// Point returns the singleton lifespan {t}.
func Point(t chronon.Time) Lifespan { return New(chronon.Point(t)) }

// fromIntervals canonicalizes an arbitrary interval collection.
func fromIntervals(in []chronon.Interval) Lifespan {
	ivs := make([]chronon.Interval, 0, len(in))
	for _, iv := range in {
		if !iv.IsEmpty() {
			ivs = append(ivs, iv)
		}
	}
	if len(ivs) == 0 {
		return Lifespan{}
	}
	slices.SortFunc(ivs, func(a, b chronon.Interval) int {
		if a.Lo != b.Lo {
			return cmp.Compare(a.Lo, b.Lo)
		}
		return cmp.Compare(a.Hi, b.Hi)
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Overlaps(*last) || iv.Adjacent(*last) {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return Lifespan{ivs: out}
}

// Builder assembles a lifespan from intervals supplied in ascending
// order — the order a walk over other canonical structures produces
// them in — coalescing adjacent ones as they arrive, so the result is
// canonical without the sort New pays for. The zero Builder is ready to
// use; NewBuilder sizes its storage up front.
type Builder struct {
	ivs []chronon.Interval
	n   int // capacity to allocate at the first Add
}

// NewBuilder returns a Builder that allocates room for n intervals at
// its first Add, so a builder that receives nothing allocates nothing.
func NewBuilder(n int) Builder { return Builder{n: n} }

// Add appends iv, which must start after every interval added so far;
// an out-of-order or overlapping interval panics. Empty intervals are
// ignored and an interval abutting the last one extends it.
func (b *Builder) Add(iv chronon.Interval) {
	if iv.IsEmpty() {
		return
	}
	if k := len(b.ivs); k > 0 {
		last := &b.ivs[k-1]
		if iv.Lo <= last.Hi {
			panic(fmt.Sprintf("lifespan: Builder.Add(%v) after %v", iv, *last))
		}
		if last.Adjacent(iv) {
			last.Hi = iv.Hi
			return
		}
	}
	if b.ivs == nil && b.n > 0 {
		b.ivs = make([]chronon.Interval, 0, b.n)
	}
	b.ivs = append(b.ivs, iv)
}

// Lifespan returns the lifespan built so far and resets the builder,
// which hands its storage to the result.
func (b *Builder) Lifespan() Lifespan {
	l := Lifespan{ivs: b.ivs}
	*b = Builder{}
	return l
}

// Intervals returns a copy of the canonical interval decomposition.
func (l Lifespan) Intervals() []chronon.Interval {
	out := make([]chronon.Interval, len(l.ivs))
	copy(out, l.ivs)
	return out
}

// NumIntervals returns the number of maximal intervals in the lifespan.
// For an object's lifespan this counts its incarnations: a re-hired
// employee's lifespan has one interval per employment period.
func (l Lifespan) NumIntervals() int { return len(l.ivs) }

// IntervalAt returns the i-th maximal interval in ascending order,
// 0 <= i < NumIntervals(). With NumIntervals it walks the decomposition
// without the copy Intervals makes.
func (l Lifespan) IntervalAt(i int) chronon.Interval { return l.ivs[i] }

// IsEmpty reports whether the lifespan is ∅.
func (l Lifespan) IsEmpty() bool { return len(l.ivs) == 0 }

// Contains reports t ∈ L.
func (l Lifespan) Contains(t chronon.Time) bool {
	// Binary search for the first interval with Hi >= t.
	i := sort.Search(len(l.ivs), func(i int) bool { return l.ivs[i].Hi >= t })
	return i < len(l.ivs) && l.ivs[i].Contains(t)
}

// Duration returns |L|, the number of chronons in the lifespan,
// saturating at the maximum int64.
func (l Lifespan) Duration() int64 {
	var sum int64
	for _, iv := range l.ivs {
		d := iv.Duration()
		sum += d
		if sum < 0 { // overflow
			return 1<<63 - 1
		}
	}
	return sum
}

// Min returns the earliest time point of the lifespan. It panics on the
// empty lifespan; callers must check IsEmpty first.
func (l Lifespan) Min() chronon.Time {
	if l.IsEmpty() {
		panic("lifespan: Min of empty lifespan")
	}
	return l.ivs[0].Lo
}

// Max returns the latest time point of the lifespan. It panics on the
// empty lifespan.
func (l Lifespan) Max() chronon.Time {
	if l.IsEmpty() {
		panic("lifespan: Max of empty lifespan")
	}
	return l.ivs[len(l.ivs)-1].Hi
}

// Span returns the smallest single interval covering the lifespan, i.e.
// [Min,Max], or the empty interval for ∅.
func (l Lifespan) Span() chronon.Interval {
	if l.IsEmpty() {
		return chronon.EmptyInterval()
	}
	return chronon.NewInterval(l.Min(), l.Max())
}

// Union returns L1 ∪ L2 (paper Section 2, derived lifespans, op 1).
func (l Lifespan) Union(m Lifespan) Lifespan {
	if l.IsEmpty() {
		return m
	}
	if m.IsEmpty() {
		return l
	}
	all := make([]chronon.Interval, 0, len(l.ivs)+len(m.ivs))
	all = append(all, l.ivs...)
	all = append(all, m.ivs...)
	return fromIntervals(all)
}

// Intersect returns L1 ∩ L2. This is the operation that defines the
// lifespan of an attribute value: vls(t,A,R) = t.l ∩ ALS(A,R). When the
// intersection is one of the operands — always when the other is a
// single interval spanning it — that operand is returned and nothing is
// allocated; otherwise the result is allocated once, at its final size.
func (l Lifespan) Intersect(m Lifespan) Lifespan {
	switch {
	case l.IsEmpty() || m.IsEmpty():
		return Lifespan{}
	case m.spans(l):
		return l
	case l.spans(m):
		return m
	}
	n, isL, isM := meet(l.ivs, m.ivs, nil)
	switch {
	case n == 0:
		return Lifespan{}
	case isL:
		return l
	case isM:
		return m
	}
	out := make([]chronon.Interval, n)
	meet(l.ivs, m.ivs, out)
	return Lifespan{ivs: out}
}

// spans reports whether l is one interval containing all of m.
func (l Lifespan) spans(m Lifespan) bool {
	return len(l.ivs) == 1 && l.ivs[0].Lo <= m.ivs[0].Lo && m.ivs[len(m.ivs)-1].Hi <= l.ivs[0].Hi
}

// meet walks the pairwise intersections of two canonical interval lists
// in ascending order, storing them into out when out is non-nil. It
// returns how many there are and whether they are exactly a's or exactly
// b's intervals. Pieces of canonical operands are already disjoint,
// non-adjacent and sorted, so they need no canonicalization.
func meet(a, b, out []chronon.Interval) (n int, isA, isB bool) {
	isA, isB = true, true
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if iv := a[i].Intersect(b[j]); !iv.IsEmpty() {
			if out != nil {
				out[n] = iv
			}
			isA = isA && n < len(a) && iv == a[n]
			isB = isB && n < len(b) && iv == b[n]
			n++
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return n, isA && n == len(a), isB && n == len(b)
}

// Minus returns the set difference L1 − L2, used by the object-based
// difference operator: (t1 −o t2).l = t1.l − t2.l.
func (l Lifespan) Minus(m Lifespan) Lifespan {
	if l.IsEmpty() || m.IsEmpty() {
		return l
	}
	var out []chronon.Interval
	j := 0
	for _, iv := range l.ivs {
		lo := iv.Lo
		exhausted := false // iv fully consumed by a cut reaching its end
		for j < len(m.ivs) && m.ivs[j].Hi < lo {
			j++
		}
		k := j
		for k < len(m.ivs) && m.ivs[k].Lo <= iv.Hi {
			cut := m.ivs[k]
			if cut.Lo > lo {
				out = append(out, chronon.NewInterval(lo, cut.Lo.Prev()))
			}
			if cut.Hi >= iv.Hi {
				exhausted = true
				break
			}
			lo = cut.Hi.Next()
			k++
		}
		if !exhausted && lo <= iv.Hi {
			out = append(out, chronon.NewInterval(lo, iv.Hi))
		}
	}
	return Lifespan{ivs: out}
}

// Complement returns T − L with respect to the machine-bounded universe.
func (l Lifespan) Complement() Lifespan { return All().Minus(l) }

// Equal reports set equality of the two lifespans.
func (l Lifespan) Equal(m Lifespan) bool {
	if len(l.ivs) != len(m.ivs) {
		return false
	}
	for i := range l.ivs {
		if !l.ivs[i].Equal(m.ivs[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports L ⊆ M. Both operands are canonical, so each interval
// of L must lie inside a single interval of M; one merge walk checks
// that without allocating.
func (l Lifespan) SubsetOf(m Lifespan) bool {
	j := 0
	for _, iv := range l.ivs {
		for j < len(m.ivs) && m.ivs[j].Hi < iv.Lo {
			j++
		}
		if j == len(m.ivs) || m.ivs[j].Lo > iv.Lo || m.ivs[j].Hi < iv.Hi {
			return false
		}
	}
	return true
}

// Overlaps reports L ∩ M ≠ ∅ without materializing the intersection.
func (l Lifespan) Overlaps(m Lifespan) bool {
	i, j := 0, 0
	for i < len(l.ivs) && j < len(m.ivs) {
		if l.ivs[i].Overlaps(m.ivs[j]) {
			return true
		}
		if l.ivs[i].Hi < m.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Each calls f for every time point of the lifespan in ascending order,
// stopping early if f returns false. Iterating a lifespan touching
// Min/Max would not terminate in practice; callers iterate only over
// database-derived (finite, small) lifespans.
func (l Lifespan) Each(f func(chronon.Time) bool) {
	for _, iv := range l.ivs {
		for t := iv.Lo; ; t++ {
			if !f(t) {
				return
			}
			if t == iv.Hi {
				break
			}
		}
	}
}

// Times materializes every time point of the lifespan in ascending
// order. Intended for small lifespans (tests, examples, figure dumps).
func (l Lifespan) Times() []chronon.Time {
	out := make([]chronon.Time, 0, l.Duration())
	l.Each(func(t chronon.Time) bool {
		out = append(out, t)
		return true
	})
	return out
}

// String renders the lifespan in the paper's notation, e.g.
// "{[1,5],[9,12]}"; the empty lifespan renders as "{}".
func (l Lifespan) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the String form of l to dst and returns the result.
func (l Lifespan) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for i, iv := range l.ivs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = iv.AppendTo(dst)
	}
	return append(dst, '}')
}

// Parse parses the notation produced by String: a brace-enclosed,
// comma-separated list of intervals "[lo,hi]" or bare points. Because a
// bare point and an interval both use commas, intervals must use the
// bracketed form inside braces; "{1,3,[5,9]}" parses as {1} ∪ {3} ∪ [5,9].
func Parse(s string) (Lifespan, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return Lifespan{}, fmt.Errorf("lifespan: parse %q: want {...}", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return Empty(), nil
	}
	var ivs []chronon.Interval
	for len(body) > 0 {
		var tok string
		if strings.HasPrefix(body, "[") {
			end := strings.IndexByte(body, ']')
			if end < 0 {
				return Lifespan{}, fmt.Errorf("lifespan: parse %q: unterminated interval", s)
			}
			tok, body = body[:end+1], body[end+1:]
		} else {
			end := strings.IndexByte(body, ',')
			if end < 0 {
				tok, body = body, ""
			} else {
				tok, body = body[:end], body[end:]
			}
		}
		body = strings.TrimPrefix(strings.TrimSpace(body), ",")
		body = strings.TrimSpace(body)
		iv, err := chronon.ParseInterval(strings.TrimSpace(tok))
		if err != nil {
			return Lifespan{}, err
		}
		ivs = append(ivs, iv)
	}
	return fromIntervals(ivs), nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(s string) Lifespan {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}
