package tfunc

import (
	"bytes"
	"testing"

	"repro/internal/chronon"
	"repro/internal/value"
)

// FuzzSlab feeds a Slab random step sequences — unsorted, overlapping,
// empty, adjacent with equal values, and functions with no steps at
// all — several functions to one slab, past its first chunk. Each Func
// must equal Builder.Build of the same assignments and render the same,
// and every Func must still render the same after every later Add and
// after an append to each of its neighbours' steps. Spec triples are
// (start, length, value) on a 64-chronon clock; a length of 0 mod 8
// makes an empty interval, value bit 3 ends the function and value bit
// 4 adds an empty one after it.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 5, 4, 8})                                      // two in order, then end
	f.Add([]byte{9, 4, 1, 0, 4, 1, 5, 3, 1})                             // unsorted, adjacent-equal
	f.Add([]byte{0, 9, 2, 3, 4, 4, 1, 0, 24, 2, 2, 0})                   // overlap, empty, Int then Float
	f.Add([]byte{0, 3, 0, 4, 3, 4, 10, 5, 9, 20, 5, 16})                 // int 0 beside float 0, ends
	f.Add(bytes.Repeat([]byte{1, 1, 0, 2, 1, 0, 3, 1, 1, 9, 2, 8}, 100)) // past the first chunk
	f.Fuzz(func(t *testing.T, spec []byte) {
		var s Slab
		var b Builder
		var got []Func
		var text []string
		finish := func() {
			f, want := s.Func(), b.Build()
			b = Builder{}
			if !f.Equal(want) || f.String() != want.String() {
				t.Fatalf("function %d: slab built %v, Builder %v", len(got), f, want)
			}
			got, text = append(got, f), append(text, f.String())
		}
		for i := 0; i+2 < len(spec); i += 3 {
			lo := chronon.Time(spec[i] % 64)
			hi := lo + chronon.Time(spec[i+1]%8) - 1
			v := value.Int(int64(spec[i+2] % 3))
			if spec[i+2]&4 != 0 {
				v = value.Float(float64(spec[i+2] % 3))
			}
			s.Add(lo, hi, v)
			b.Set(lo, hi, v)
			if spec[i+2]&8 != 0 {
				finish()
			}
			if spec[i+2]&16 != 0 {
				finish()
			}
		}
		finish()
		for _, f := range got {
			_ = append(f.steps, step{Iv: chronon.Point(99), V: value.Int(9)})
		}
		for i, f := range got {
			if f.String() != text[i] {
				t.Fatalf("function %d changed from %s to %s after later adds and appends", i, text[i], f)
			}
		}
	})
}
