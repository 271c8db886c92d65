package value

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/chronon"
)

// Kind enumerates the atomic value kinds.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	// KindTime marks values drawn from T itself. Attributes whose
	// value-domain is KindTime are the "time-valued" attributes with
	// DOM(A) ⊆ TT that power dynamic TIME-SLICE and TIME-JOIN.
	KindTime
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return "invalid"
	}
}

// Value is a single atomic value from one of the value domains. The zero
// Value is invalid and distinct from every valid value; operator results
// never contain invalid values (where the paper says an attribute "does
// not exist" at a time, the temporal function is simply undefined there).
//
// A float's bits live in n (math.Float64bits), which keeps a Value at
// 32 bytes; Equal, Compare and rendering decode them, so float
// semantics hold (+0 equals -0, NaN equals nothing). Compare Values
// with Equal, never with ==, and do not use them as map keys.
type Value struct {
	kind Kind
	n    int64  // int, bool (0/1), time, float bits
	s    string // string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(v))} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the String method.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// TimeVal returns a value of kind time, i.e. a member of T viewed as a
// value domain (the range of TT functions).
func TimeVal(t chronon.Time) Value { return Value{kind: KindTime, n: int64(t)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It panics if the kind is not int.
func (v Value) AsInt() int64 {
	v.mustBe(KindInt)
	return v.n
}

// AsFloat returns the float payload; integer values widen losslessly.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindInt:
		return float64(v.n)
	}
	panic(fmt.Sprintf("value: AsFloat on %s value", v.kind))
}

// AsString returns the string payload. It panics if the kind is not string.
func (v Value) AsString() string {
	v.mustBe(KindString)
	return v.s
}

// AsBool returns the boolean payload. It panics if the kind is not bool.
func (v Value) AsBool() bool {
	v.mustBe(KindBool)
	return v.n != 0
}

// AsTime returns the time payload. It panics if the kind is not time.
func (v Value) AsTime() chronon.Time {
	v.mustBe(KindTime)
	return chronon.Time(v.n)
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: As%v on %v value", k, v.kind))
	}
}

// Equal reports value equality. Values of different kinds are unequal,
// except that ints and floats compare numerically (30 == 30.0), matching
// what a user writing a selection predicate expects.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindFloat:
			return v.AsFloat() == w.AsFloat()
		case KindString:
			return v.s == w.s
		default:
			return v.n == w.n
		}
	}
	if numericPair(v, w) {
		return v.AsFloat() == w.AsFloat()
	}
	return false
}

func numericPair(v, w Value) bool {
	num := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return num(v.kind) && num(w.kind)
}

// Compare orders two values: -1, 0, +1. Only values of comparable kinds
// may be ordered (numeric with numeric, string with string, time with
// time, bool with bool — false < true); otherwise Compare returns an
// error. Comparability errors surface to the algebra as query errors.
func (v Value) Compare(w Value) (int, error) {
	switch {
	case numericPair(v, w):
		a, b := v.AsFloat(), w.AsFloat()
		return cmp(a, b), nil
	case v.kind == KindString && w.kind == KindString:
		switch {
		case v.s < w.s:
			return -1, nil
		case v.s > w.s:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindTime && w.kind == KindTime,
		v.kind == KindBool && w.kind == KindBool:
		return cmp(v.n, w.n), nil
	}
	return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, w.kind)
}

func cmp[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String renders the value for display: strings are quoted, booleans are
// true/false, times use chronon notation.
func (v Value) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String form of v to dst and returns the result.
func (v Value) AppendTo(dst []byte) []byte { return v.AppendForm(dst, Text) }

// AppendForm appends v's rendering in form f to dst. Only a string
// differs between the forms: it is quoted as strconv.Quote does, and in
// Wire form the quote's '"' and '\' bytes are backslashed.
func (v Value) AppendForm(dst []byte, f Form) []byte {
	switch v.kind {
	case KindInt:
		return chronon.AppendInt(dst, v.n)
	case KindFloat:
		return strconv.AppendFloat(dst, v.AsFloat(), 'g', -1, 64)
	case KindString:
		return f.appendQuoted(dst, v.s)
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0)
	case KindTime:
		return chronon.Time(v.n).AppendTo(append(dst, '@'))
	default:
		return append(dst, "<invalid>"...)
	}
}

// Theta is one of the six comparison relations θ of the paper's selection
// predicates "A θ a" and θ-JOIN conditions "A θ B".
type Theta uint8

const (
	EQ Theta = iota // =
	NE              // ≠
	LT              // <
	LE              // ≤
	GT              // >
	GE              // ≥
)

// String renders the comparator.
func (th Theta) String() string {
	switch th {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// ParseTheta parses a comparator token.
func ParseTheta(s string) (Theta, error) {
	switch s {
	case "=", "==":
		return EQ, nil
	case "!=", "<>", "≠":
		return NE, nil
	case "<":
		return LT, nil
	case "<=", "≤":
		return LE, nil
	case ">":
		return GT, nil
	case ">=", "≥":
		return GE, nil
	}
	return 0, fmt.Errorf("value: unknown comparator %q", s)
}

// Apply evaluates v θ w. Equality and inequality are defined for all kind
// pairs (cross-kind non-numeric values are simply unequal); the order
// comparators require comparable kinds.
func (th Theta) Apply(v, w Value) (bool, error) {
	switch th {
	case EQ:
		return v.Equal(w), nil
	case NE:
		return !v.Equal(w), nil
	}
	c, err := v.Compare(w)
	if err != nil {
		return false, err
	}
	switch th {
	case LT:
		return c < 0, nil
	case LE:
		return c <= 0, nil
	case GT:
		return c > 0, nil
	case GE:
		return c >= 0, nil
	}
	return false, fmt.Errorf("value: invalid comparator %d", th)
}

// Domain describes a value domain Di: a kind plus a human-readable name.
// DOM assignments in relation schemes reference Domains.
type Domain struct {
	Name string
	Kind Kind
}

// Common domains used by the examples and tests.
var (
	Ints    = Domain{Name: "integers", Kind: KindInt}
	Floats  = Domain{Name: "reals", Kind: KindFloat}
	Strings = Domain{Name: "strings", Kind: KindString}
	Bools   = Domain{Name: "booleans", Kind: KindBool}
	Times   = Domain{Name: "times", Kind: KindTime}
)

// Contains reports whether v is a member of the domain.
func (d Domain) Contains(v Value) bool { return v.kind == d.Kind }
