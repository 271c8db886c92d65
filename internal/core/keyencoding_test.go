package core

import (
	"testing"

	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// pairScheme is a two-attribute string key scheme for collision tests.
func pairScheme() *schema.Scheme {
	full := lifespan.Interval(0, 99)
	return schema.MustNew("PAIR", []string{"A", "B"},
		schema.Attribute{Name: "A", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "B", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "PAYLOAD", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

// TestEncodeKeyInjective is the regression for the bare-'|' join: under
// the old encoding, raw parts ("a|b","c") and ("a","b|c") collapsed to
// the same canonical string. Tuple key values reach the encoder through
// strconv.Quote (which happened to keep the old join injective), but
// Relation.Lookup accepts arbitrary caller strings, and the injectivity
// of the index encoding should not lean on a rendering detail defined
// two packages away — it now holds for any parts by construction.
func TestEncodeKeyInjective(t *testing.T) {
	collisions := [][2][]string{
		{{`a|b`, `c`}, {`a`, `b|c`}},     // the motivating case
		{{`a`, `b|c|d`}, {`a|b`, `c|d`}}, // separator at different splits
		{{`a\`, `b`}, {`a`, `\b`}},       // escape char near the boundary
		{{`a\|b`, `c`}, {`a\`, `|b|c`}},  // escapes and separators mixed
		{{``, `|`}, {`|`, ``}},           // empty parts
	}
	for _, c := range collisions {
		if value.EncodeKey(c[0]) == value.EncodeKey(c[1]) {
			t.Errorf("EncodeKey%v and EncodeKey%v collide: %q", c[0], c[1], value.EncodeKey(c[0]))
		}
	}
	// Same parts must keep encoding equal (determinism).
	if value.EncodeKey([]string{`a|b`, `c`}) != value.EncodeKey([]string{`a|b`, `c`}) {
		t.Fatal("EncodeKey is not deterministic")
	}
}

// TestPipeBearingKeys drives the full relation path with '|'-bearing
// string keys: inserts that used to collide must coexist, and Lookup
// must distinguish them.
func TestPipeBearingKeys(t *testing.T) {
	rs := pairScheme()
	r := NewRelation(rs)
	mk := func(a, b string, pay int64) *Tuple {
		return NewTupleBuilder(rs, lifespan.Interval(0, 9)).
			Key("A", value.String_(a)).
			Key("B", value.String_(b)).
			Set("PAYLOAD", 0, 9, value.Int(pay)).
			MustBuild()
	}
	if err := r.Insert(mk(`x|y`, `z`, 1)); err != nil {
		t.Fatalf("insert (x|y, z): %v", err)
	}
	if err := r.Insert(mk(`x`, `y|z`, 2)); err != nil {
		t.Fatalf("insert (x, y|z) must not collide with (x|y, z): %v", err)
	}
	if err := r.Insert(mk(`x`, `y`, 3)); err != nil {
		t.Fatalf("insert (x, y): %v", err)
	}
	if r.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3", r.Cardinality())
	}
	// Lookup takes each key value's canonical rendering separately and
	// must resolve each tuple to its own payload.
	for _, c := range []struct {
		a, b string
		pay  int64
	}{{`x|y`, `z`, 1}, {`x`, `y|z`, 2}, {`x`, `y`, 3}} {
		tp, ok := r.Lookup(value.String_(c.a).String(), value.String_(c.b).String())
		if !ok {
			t.Fatalf("Lookup(%q, %q) not found", c.a, c.b)
		}
		v, _ := tp.At("PAYLOAD", 0)
		if v.AsInt() != c.pay {
			t.Fatalf("Lookup(%q, %q) resolved payload %d, want %d", c.a, c.b, v.AsInt(), c.pay)
		}
	}
	// A genuine duplicate is still rejected.
	if err := r.Insert(mk(`x|y`, `z`, 9)); err == nil {
		t.Fatal("duplicate (x|y, z) accepted")
	}
	// And backslash-bearing keys round-trip too.
	if err := r.Insert(mk(`x\`, `y`, 4)); err != nil {
		t.Fatalf(`insert (x\, y): %v`, err)
	}
	if err := r.Insert(mk(`x`, `\y`, 5)); err != nil {
		t.Fatalf(`insert (x, \y) must not collide with (x\, y): %v`, err)
	}
}
