package lifespan

import (
	"bytes"
	"testing"

	"repro/internal/chronon"
)

// FuzzSlab feeds a Slab random interval sequences — unsorted,
// overlapping, adjacent, empty, and lifespans with no intervals at
// all — several lifespans to one slab, past its first chunk. Each
// Lifespan must equal New of the same intervals, and every Lifespan
// must still render the same after every later Add and after an append
// to each of its neighbours' intervals. Spec pairs are (start, length)
// on a 64-chronon clock; a length of 0 mod 8 makes an empty interval,
// length bit 4 ends the lifespan and bit 5 adds an empty one after it.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 5, 19})                                // two in order, end
	f.Add([]byte{9, 3, 0, 3, 4, 2})                           // unsorted, adjacent
	f.Add([]byte{0, 7, 3, 2, 40, 0, 2, 48})                   // overlap, empty, ends
	f.Add(bytes.Repeat([]byte{1, 1, 2, 3, 9, 2, 3, 17}, 100)) // past the first chunk
	f.Fuzz(func(t *testing.T, spec []byte) {
		var s Slab
		var ivs []chronon.Interval
		var got []Lifespan
		var text []string
		finish := func() {
			l, want := s.Lifespan(), New(ivs...)
			ivs = ivs[:0]
			if !l.Equal(want) || l.String() != want.String() {
				t.Fatalf("lifespan %d: slab built %v, New %v", len(got), l, want)
			}
			got, text = append(got, l), append(text, l.String())
		}
		for i := 0; i+1 < len(spec); i += 2 {
			lo := chronon.Time(spec[i] % 64)
			hi := lo + chronon.Time(spec[i+1]%8) - 1
			s.Add(lo, hi)
			ivs = append(ivs, chronon.NewInterval(lo, hi))
			if spec[i+1]&16 != 0 {
				finish()
			}
			if spec[i+1]&32 != 0 {
				finish()
			}
		}
		finish()
		for _, l := range got {
			_ = append(l.ivs, chronon.Point(99))
		}
		for i, l := range got {
			if l.String() != text[i] {
				t.Fatalf("lifespan %d changed from %s to %s after later adds and appends", i, text[i], l)
			}
		}
	})
}
