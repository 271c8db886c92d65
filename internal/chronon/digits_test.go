package chronon_test

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/chronon"
	"repro/internal/value"
)

// timeText is Time.String's reference: strconv's digits, with the
// ±inf sentinels for Min and Max.
func timeText(t chronon.Time) string {
	switch t {
	case chronon.Min:
		return "-inf"
	case chronon.Max:
		return "+inf"
	}
	return strconv.FormatInt(int64(t), 10)
}

// FuzzAppendDigits checks the two-digit-table renderings of times,
// intervals and integer values against strconv for arbitrary int64
// pairs, appended after a prefix of arbitrary length and into a
// buffer with spare capacity or none.
func FuzzAppendDigits(f *testing.F) {
	for _, c := range [][2]int64{
		{0, 0}, {1, -1}, {9, 10}, {99, 100}, {-99, -100}, {1e8, 1e8 + 1}, {123456789, 987654321},
		{1e18, -1e18}, {math.MaxInt64, math.MinInt64}, {int64(chronon.Min), int64(chronon.Max)},
		{int64(chronon.Min) + 1, int64(chronon.Max) - 1}, {-5, 7},
	} {
		f.Add(c[0], c[1], uint8(3))
	}
	f.Fuzz(func(t *testing.T, a, b int64, pre uint8) {
		prefix := []byte("xyz.........")[:pre%12]
		for _, spare := range []int{0, 64} {
			dst := func() []byte { return append(make([]byte, 0, len(prefix)+spare), prefix...) }
			check := func(what string, got []byte, want string) {
				t.Helper()
				if string(got) != string(prefix)+want {
					t.Fatalf("%s: %q, want %q", what, got, string(prefix)+want)
				}
			}
			check("AppendInt", chronon.AppendInt(dst(), a), strconv.FormatInt(a, 10))
			check("Time", chronon.Time(a).AppendTo(dst()), timeText(chronon.Time(a)))
			check("value.Int", value.Int(b).AppendTo(dst()), strconv.FormatInt(b, 10))
			iv := chronon.Interval{Lo: chronon.Time(min(a, b)), Hi: chronon.Time(max(a, b))}
			want := "[" + timeText(iv.Lo) + "," + timeText(iv.Hi) + "]"
			if iv.Lo == iv.Hi {
				want = timeText(iv.Lo)
			}
			check("Interval", iv.AppendTo(dst()), want)
			check("empty Interval", chronon.EmptyInterval().AppendTo(dst()), "[]")
		}
	})
}
