package tfunc

import (
	"repro/internal/chronon"
	"repro/internal/value"
)

// Slab chunk sizes, in steps: the first chunk holds slabMinChunk, each
// later one twice its predecessor up to slabMaxChunk.
const (
	slabMinChunk = 64
	slabMaxChunk = 1024
)

// Slab builds many Funcs whose steps share a few chunks of storage, for
// a decoder that builds thousands of small functions at once. Each Func
// is a capped window of a chunk (s[a:b:b]), so an append through one
// can never reach its neighbour, and a later Add never changes a Func
// already returned. Chunks grow geometrically from constants, never
// from a count the caller supplies, so a corrupt length field costs no
// more memory than the steps that actually arrive. The zero Slab is
// ready to use.
//
// A Func's window keeps its whole chunk reachable: a Slab suits data
// that lives and dies together, such as a loaded relation.
type Slab struct {
	buf   []step // current chunk; buf[start:] is the Func being built
	start int
}

// Add appends the assignment f(t) = v for every t in [lo,hi] to the Func
// being built, as Builder.Set does.
func (s *Slab) Add(lo, hi chronon.Time, v value.Value) {
	if !v.IsValid() {
		panic("tfunc: Slab.Add with invalid value")
	}
	if len(s.buf) == cap(s.buf) {
		s.grow()
	}
	s.buf = append(s.buf, step{Iv: chronon.Interval{Lo: lo, Hi: hi}, V: v})
}

// grow moves the Func being built to a fresh chunk, twice the size of
// the current one (or of the Func, if larger), within the constants.
func (s *Slab) grow() {
	n := min(max(2*cap(s.buf), slabMinChunk), slabMaxChunk)
	n = max(n, 2*(len(s.buf)-s.start))
	fresh := make([]step, len(s.buf)-s.start, n)
	copy(fresh, s.buf[s.start:])
	s.buf, s.start = fresh, 0
}

// Func returns the Func of the assignments added since the last call
// and starts the next. Assignments in canonical form — non-empty,
// ascending, disjoint, no two adjacent with equal values — are adopted
// as they are; any others are built by a Builder, as Build would build
// them, and their slab space is reused.
func (s *Slab) Func() Func {
	w := s.buf[s.start:len(s.buf):len(s.buf)]
	if len(w) == 0 {
		return Func{}
	}
	if inCanonicalForm(w) {
		s.start = len(s.buf)
		return Func{steps: w}
	}
	var b Builder
	for _, st := range w {
		b.Set(st.Iv.Lo, st.Iv.Hi, st.V)
	}
	s.buf = s.buf[:s.start]
	return b.Build()
}

// inCanonicalForm reports whether ss is already what canonical would make
// of it: every step non-empty, each starting after the previous one
// ends, and no two adjacent steps merging under canonical's rule.
func inCanonicalForm(ss []step) bool {
	for i, s := range ss {
		if s.Iv.IsEmpty() {
			return false
		}
		if i == 0 {
			continue
		}
		last := ss[i-1]
		if s.Iv.Lo <= last.Iv.Hi || mergeable(last, s) {
			return false
		}
	}
	return true
}
