package value

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/chronon"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Error("Int round trip")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip")
	}
	if String_("codd").AsString() != "codd" {
		t.Error("String round trip")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip")
	}
	if TimeVal(7).AsTime() != chronon.Time(7) {
		t.Error("Time round trip")
	}
	if (Value{}).IsValid() {
		t.Error("zero Value must be invalid")
	}
	if !Int(0).IsValid() {
		t.Error("Int(0) is a valid value")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Int(1).AsString() },
		func() { String_("x").AsInt() },
		func() { Bool(true).AsFloat() },
		func() { Int(1).AsTime() },
		func() { String_("x").AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(3), Int(3), true},
		{Int(3), Int(4), false},
		{Int(30), Float(30.0), true}, // numeric cross-kind equality
		{Float(1.5), Int(1), false},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{String_("3"), Int(3), false}, // no string/number coercion
		{Bool(true), Bool(true), true},
		{Bool(true), Int(1), false},
		{TimeVal(5), TimeVal(5), true},
		{TimeVal(5), Int(5), false}, // times are not integers in the model
		{Float(0), Float(negZero), true},
		{Float(negZero), Int(0), true},
		{Float(math.NaN()), Float(math.NaN()), false},
		{Float(math.NaN()), Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v = %v: got %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("equality must be symmetric: %v, %v", c.a, c.b)
		}
	}
}

func TestCompare(t *testing.T) {
	lt := []struct{ a, b Value }{
		{Int(1), Int(2)},
		{Int(1), Float(1.5)},
		{Float(-0.5), Int(0)},
		{String_("abc"), String_("abd")},
		{TimeVal(3), TimeVal(9)},
		{Bool(false), Bool(true)},
	}
	for _, c := range lt {
		got, err := c.a.Compare(c.b)
		if err != nil || got != -1 {
			t.Errorf("Compare(%v,%v) = %d, %v; want -1", c.a, c.b, got, err)
		}
		back, err := c.b.Compare(c.a)
		if err != nil || back != 1 {
			t.Errorf("Compare(%v,%v) = %d, %v; want 1", c.b, c.a, back, err)
		}
	}
	for _, eq := range [][2]Value{{Int(7), Int(7)}, {Float(negZero), Float(0)}} {
		if got, err := eq[0].Compare(eq[1]); err != nil || got != 0 {
			t.Errorf("Compare(%v,%v) = %d, %v; want 0", eq[0], eq[1], got, err)
		}
	}
	for _, bad := range [][2]Value{
		{Int(1), String_("1")},
		{TimeVal(1), Int(1)},
		{Bool(true), Int(1)},
		{String_("x"), Bool(false)},
	} {
		if _, err := bad[0].Compare(bad[1]); err == nil {
			t.Errorf("Compare(%v,%v) should error", bad[0], bad[1])
		}
	}
}

func TestThetaApply(t *testing.T) {
	cases := []struct {
		th   Theta
		a, b Value
		want bool
	}{
		{EQ, Int(3), Int(3), true},
		{NE, Int(3), Int(3), false},
		{NE, Int(3), String_("x"), true}, // cross-kind NE is just "not equal"
		{LT, Int(3), Int(5), true},
		{LE, Int(5), Int(5), true},
		{GT, Float(5.5), Int(5), true},
		{GE, Int(4), Int(5), false},
		{LT, String_("ann"), String_("bob"), true},
		{GE, TimeVal(9), TimeVal(3), true},
	}
	for _, c := range cases {
		got, err := c.th.Apply(c.a, c.b)
		if err != nil {
			t.Fatalf("%v %v %v: %v", c.a, c.th, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.th, c.b, got, c.want)
		}
	}
	if _, err := LT.Apply(Int(1), String_("x")); err == nil {
		t.Error("ordering incomparable kinds should error")
	}
}

func TestThetaStringParse(t *testing.T) {
	for _, th := range []Theta{EQ, NE, LT, LE, GT, GE} {
		back, err := ParseTheta(th.String())
		if err != nil || back != th {
			t.Errorf("round trip %v: %v, %v", th, back, err)
		}
	}
	for in, want := range map[string]Theta{"==": EQ, "<>": NE, "≠": NE, "≤": LE, "≥": GE} {
		got, err := ParseTheta(in)
		if err != nil || got != want {
			t.Errorf("ParseTheta(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTheta("~"); err == nil {
		t.Error("ParseTheta should reject unknown tokens")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":        Int(42),
		"2.5":       Float(2.5),
		"-0":        Float(negZero),
		"NaN":       Float(math.NaN()),
		`"hi"`:      String_("hi"),
		"true":      Bool(true),
		"false":     Bool(false),
		"@7":        TimeVal(7),
		"<invalid>": {},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

var negZero = math.Copysign(0, -1)

// TestValueSize pins a Value at 32 bytes: a float keeps its bits in the
// integer payload rather than in a field of its own, which made a
// Value 40 bytes and a temporal function's step 64.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
	for _, f := range []float64{0, negZero, 1.25, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := Float(f).AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() = %v, bits differ", f, got)
		}
	}
}

func TestDomains(t *testing.T) {
	if !Ints.Contains(Int(1)) || Ints.Contains(Float(1)) {
		t.Error("Ints membership")
	}
	if !Times.Contains(TimeVal(0)) || Times.Contains(Int(0)) {
		t.Error("Times membership")
	}
	if !Strings.Contains(String_("")) {
		t.Error("empty string is still a string")
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and totality of the numeric order.
	err := quick.Check(func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		c1, e1 := x.Compare(y)
		c2, e2 := y.Compare(x)
		if e1 != nil || e2 != nil {
			return false
		}
		return c1 == -c2 && (c1 == 0) == x.Equal(y)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	// EQ/NE are complementary for all kind combinations.
	vals := []Value{Int(1), Float(1), String_("1"), Bool(true), TimeVal(1), Int(2)}
	for _, a := range vals {
		for _, b := range vals {
			eq, _ := EQ.Apply(a, b)
			ne, _ := NE.Apply(a, b)
			if eq == ne {
				t.Errorf("EQ and NE must be complementary for %v, %v", a, b)
			}
		}
	}
}

// TestAppendKeyPart checks that appending key values part by part, after
// an unrelated prefix, yields exactly EncodeKey of their renderings, and
// that KeyOf builds that same Key — for a single value of every kind
// too, the form a single-attribute key probe looks up.
func TestAppendKeyPart(t *testing.T) {
	keys := [][]Value{
		{String_("plain")},
		{String_(`a|b`), String_(`c`)},
		{String_(`a\`), String_(`|b|c`)},
		{Int(10), String_(`x\|y`), TimeVal(chronon.Max)},
		{String_(""), String_("|")},
		{Int(-42)}, {Float(2.5)}, {Float(-1e300)}, {Bool(true)}, {Bool(false)}, {TimeVal(7)},
		{String_(`say "hi" | \ \" \|`)}, {String_("ünï\x00\n")},
	}
	for _, vals := range keys {
		parts := make([]string, len(vals))
		dst := []byte("prefix|\\")
		for i, v := range vals {
			parts[i] = v.String()
			dst = AppendKeyPart(dst, i, v)
		}
		if got, want := string(dst), "prefix|\\"+EncodeKey(parts).String(); got != want {
			t.Errorf("AppendKeyPart %v = %q, want %q", vals, got, want)
		}
		if got, want := KeyOf(vals...), EncodeKey(parts); got != want {
			t.Errorf("KeyOf %v = %q, want %q", vals, got, want)
		}
	}
}

// TestAppendToAmortized guards the renderer against strconv.AppendQuote's
// exact-size growth: appending n strings to one buffer must reallocate
// it O(log n) times, not once per string.
func TestAppendToAmortized(t *testing.T) {
	v := String_("a string value")
	allocs := testing.AllocsPerRun(3, func() {
		var dst []byte
		for i := 0; i < 1000; i++ {
			dst = v.AppendTo(dst)
		}
	})
	if allocs > 100 {
		t.Errorf("1000 appends allocated %.0f times, want ≤ 100", allocs)
	}
}
