package chronon

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Time is a single point of the time domain T. The order <_T is the
// ordinary integer order: ti <_T tj iff i < j, exactly as the paper
// assumes "for the sake of clarity".
type Time int64

// Distinguished time points.
//
// The paper's examples use a distinguished time "now" (Figure 6) and the
// reduction argument of Section 5 sets T = {now}. Min and Max bound the
// finite universe used by complement operations; they play the role of the
// conceptual -infinity/+infinity of a countable T in a finite machine.
const (
	Min Time = -1 << 62
	Max Time = 1<<62 - 1
)

// Now is the distinguished current time used by examples and by the
// snapshot-reduction theorem of Section 5 (T = {now}). It is a variable so
// tests can pin it.
var Now Time = 0

// Before reports t <_T u.
func (t Time) Before(u Time) bool { return t < u }

// After reports u <_T t.
func (t Time) After(u Time) bool { return t > u }

// Next returns the successor time point. T is isomorphic to the natural
// numbers, so every point has a discrete successor.
func (t Time) Next() Time {
	if t == Max {
		return Max
	}
	return t + 1
}

// Prev returns the predecessor time point.
func (t Time) Prev() Time {
	if t == Min {
		return Min
	}
	return t - 1
}

// String renders the time point. Min and Max render as -inf / +inf for
// readability in dumps of complemented lifespans.
func (t Time) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends the String form of t to dst and returns the result.
func (t Time) AppendTo(dst []byte) []byte {
	return t.appendTo(slices.Grow(dst, maxIntLen))
}

// appendTo is AppendTo into dst whose capacity has maxIntLen bytes to
// spare.
func (t Time) appendTo(dst []byte) []byte {
	switch t {
	case Min:
		return append(dst, "-inf"...)
	case Max:
		return append(dst, "+inf"...)
	}
	return appendInt(dst, int64(t))
}

// maxIntLen is the longest decimal int64: a sign and 19 digits.
const maxIntLen = 20

// digitPairs holds the two decimal digits of 0…99 at 2n and 2n+1.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendInt appends the decimal form of n to dst, the bytes of
// strconv.AppendInt(dst, n, 10): the digits are written two at a time
// straight into dst, with its capacity grown once.
func AppendInt(dst []byte, n int64) []byte {
	return appendInt(slices.Grow(dst, maxIntLen), n)
}

// appendInt is AppendInt into dst whose capacity has maxIntLen bytes to
// spare.
func appendInt(dst []byte, n int64) []byte {
	u := uint64(n)
	if n < 0 {
		dst = append(dst, '-')
		u = -u
	}
	digits := 1 // |n| ≤ 2⁶³ has at most 19, and 10¹⁹ fits a uint64
	for p := uint64(10); digits < 19 && u >= p; p *= 10 {
		digits++
	}
	i := len(dst) + digits
	dst = dst[:i]
	for u >= 100 {
		q := u / 100
		d := (u - q*100) * 2
		i -= 2
		dst[i], dst[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// ParseTime parses a time point as printed by Time.String.
func ParseTime(s string) (Time, error) {
	switch strings.TrimSpace(s) {
	case "-inf":
		return Min, nil
	case "+inf", "inf":
		return Max, nil
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("chronon: parse time %q: %w", s, err)
	}
	return Time(v), nil
}

// Interval is a closed interval [Lo,Hi] of T: the set {t | Lo <= t <= Hi}.
// An interval with Lo > Hi is empty; the canonical empty interval is
// returned by EmptyInterval.
type Interval struct {
	Lo, Hi Time
}

// EmptyInterval returns the canonical empty interval.
func EmptyInterval() Interval { return Interval{Lo: 1, Hi: 0} }

// NewInterval returns the closed interval [lo,hi]. If lo > hi the result
// is the canonical empty interval.
func NewInterval(lo, hi Time) Interval {
	if lo > hi {
		return EmptyInterval()
	}
	return Interval{Lo: lo, Hi: hi}
}

// Point returns the singleton interval [t,t].
func Point(t Time) Interval { return Interval{Lo: t, Hi: t} }

// IsEmpty reports whether the interval denotes the empty set.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Contains reports whether t is a member of the interval.
func (iv Interval) Contains(t Time) bool { return iv.Lo <= t && t <= iv.Hi }

// Duration returns the number of chronons in the interval. The count
// saturates at the maximum int64 for intervals touching Min/Max.
func (iv Interval) Duration() int64 {
	if iv.IsEmpty() {
		return 0
	}
	d := uint64(iv.Hi) - uint64(iv.Lo) + 1
	if int64(d) < 0 {
		return 1<<63 - 1
	}
	return int64(d)
}

// Intersect returns the interval intersection iv ∩ ov.
func (iv Interval) Intersect(ov Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if ov.Lo > lo {
		lo = ov.Lo
	}
	if ov.Hi < hi {
		hi = ov.Hi
	}
	return NewInterval(lo, hi)
}

// Overlaps reports whether the two intervals share at least one chronon.
func (iv Interval) Overlaps(ov Interval) bool {
	return !iv.Intersect(ov).IsEmpty()
}

// Adjacent reports whether the two intervals are disjoint but abut, so
// that their union is a single interval (e.g. [1,3] and [4,7]).
func (iv Interval) Adjacent(ov Interval) bool {
	if iv.IsEmpty() || ov.IsEmpty() {
		return false
	}
	return (iv.Hi != Max && iv.Hi.Next() == ov.Lo) ||
		(ov.Hi != Max && ov.Hi.Next() == iv.Lo)
}

// Equal reports set equality of the two intervals.
func (iv Interval) Equal(ov Interval) bool {
	if iv.IsEmpty() || ov.IsEmpty() {
		return iv.IsEmpty() && ov.IsEmpty()
	}
	return iv.Lo == ov.Lo && iv.Hi == ov.Hi
}

// String renders the interval in the paper's closed-interval notation
// [lo,hi]; singletons render as the bare time point.
func (iv Interval) String() string { return string(iv.AppendTo(nil)) }

// AppendTo appends the String form of iv to dst and returns the result.
func (iv Interval) AppendTo(dst []byte) []byte {
	if iv.IsEmpty() {
		return append(dst, "[]"...)
	}
	// One reservation covers both bounds and the brackets.
	dst = slices.Grow(dst, 2*maxIntLen+3)
	if iv.Lo == iv.Hi {
		return iv.Lo.appendTo(dst)
	}
	dst = iv.Lo.appendTo(append(dst, '['))
	return append(iv.Hi.appendTo(append(dst, ',')), ']')
}

// ParseInterval parses "[lo,hi]", "[lo..hi]" or a bare point "t".
func ParseInterval(s string) (Interval, error) {
	s = strings.TrimSpace(s)
	if s == "[]" {
		return EmptyInterval(), nil
	}
	if !strings.HasPrefix(s, "[") {
		t, err := ParseTime(s)
		if err != nil {
			return Interval{}, err
		}
		return Point(t), nil
	}
	if !strings.HasSuffix(s, "]") {
		return Interval{}, fmt.Errorf("chronon: parse interval %q: missing ']'", s)
	}
	body := s[1 : len(s)-1]
	var parts []string
	switch {
	case strings.Contains(body, ".."):
		parts = strings.SplitN(body, "..", 2)
	case strings.Contains(body, ","):
		parts = strings.SplitN(body, ",", 2)
	default:
		return Interval{}, fmt.Errorf("chronon: parse interval %q: want [lo,hi]", s)
	}
	lo, err := ParseTime(parts[0])
	if err != nil {
		return Interval{}, err
	}
	hi, err := ParseTime(parts[1])
	if err != nil {
		return Interval{}, err
	}
	if lo > hi {
		return Interval{}, fmt.Errorf("chronon: parse interval %q: lo > hi", s)
	}
	return NewInterval(lo, hi), nil
}
