package lifespan

import "repro/internal/chronon"

// Slab chunk sizes, in intervals: the first chunk holds slabMinChunk,
// each later one twice its predecessor up to slabMaxChunk.
const (
	slabMinChunk = 64
	slabMaxChunk = 1024
)

// Slab builds many lifespans whose intervals share a few chunks of
// storage, for a decoder that builds thousands of small lifespans at
// once. Each Lifespan is a capped window of a chunk (s[a:b:b]), so a
// later Add never changes a Lifespan already returned. Chunks grow
// geometrically from constants, never from a count the caller supplies,
// so a corrupt length field costs no more memory than the intervals
// that actually arrive. The zero Slab is ready to use.
//
// A Lifespan's window keeps its whole chunk reachable: a Slab suits
// data that lives and dies together, such as a loaded relation.
type Slab struct {
	buf   []chronon.Interval // current chunk; buf[start:] is the lifespan being built
	start int
}

// Add appends [lo,hi] to the lifespan being built.
func (s *Slab) Add(lo, hi chronon.Time) {
	if len(s.buf) == cap(s.buf) {
		s.grow()
	}
	s.buf = append(s.buf, chronon.Interval{Lo: lo, Hi: hi})
}

// grow moves the lifespan being built to a fresh chunk, twice the size
// of the current one (or of the lifespan, if larger), within the
// constants.
func (s *Slab) grow() {
	n := min(max(2*cap(s.buf), slabMinChunk), slabMaxChunk)
	n = max(n, 2*(len(s.buf)-s.start))
	fresh := make([]chronon.Interval, len(s.buf)-s.start, n)
	copy(fresh, s.buf[s.start:])
	s.buf, s.start = fresh, 0
}

// Lifespan returns the lifespan of the intervals added since the last
// call and starts the next. Intervals in canonical form — non-empty,
// ascending, neither overlapping nor adjacent — are adopted as they
// are; any others are canonicalized as New would, and their slab space
// is reused.
func (s *Slab) Lifespan() Lifespan {
	w := s.buf[s.start:len(s.buf):len(s.buf)]
	if len(w) == 0 {
		return Lifespan{}
	}
	if inCanonicalForm(w) {
		s.start = len(s.buf)
		return Lifespan{ivs: w}
	}
	l := fromIntervals(w)
	s.buf = s.buf[:s.start]
	return l
}

// inCanonicalForm reports whether ivs is already in Lifespan's canonical
// form.
func inCanonicalForm(ivs []chronon.Interval) bool {
	for i, iv := range ivs {
		if iv.IsEmpty() {
			return false
		}
		if i > 0 && (iv.Lo <= ivs[i-1].Hi || ivs[i-1].Adjacent(iv)) {
			return false
		}
	}
	return true
}
