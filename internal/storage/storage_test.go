package storage

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/chronon"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

func fixture(t testing.TB) *core.Relation {
	t.Helper()
	full := lifespan.MustParse("{[0,99]}")
	s := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "RATE", Domain: value.Floats, Lifespan: full},
		schema.Attribute{Name: "ACTIVE", Domain: value.Bools, Lifespan: full},
		schema.Attribute{Name: "REVIEW", Domain: value.Times, Lifespan: full},
	)
	r := core.NewRelation(s)
	r.MustInsert(core.NewTupleBuilder(s, lifespan.MustParse("{[0,9],[20,29]}")).
		Key("NAME", value.String_("John")).
		Set("SAL", 0, 4, value.Int(30000)).
		Set("SAL", 5, 9, value.Int(34000)).
		Set("SAL", 20, 29, value.Int(40000)).
		Set("RATE", 0, 9, value.Float(1.25)).
		Set("ACTIVE", 0, 9, value.Bool(true)).
		Set("ACTIVE", 20, 29, value.Bool(false)).
		Set("REVIEW", 0, 9, value.TimeVal(7)).
		MustBuild())
	r.MustInsert(core.NewTupleBuilder(s, lifespan.MustParse("{[3,19]}")).
		Key("NAME", value.String_("Mary")).
		Set("SAL", 3, 19, value.Int(40000)).
		MustBuild())
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := fixture(t)
	b, err := EncodeBytes(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatalf("round trip lost data:\n%s\nvs\n%s", back, r)
	}
	// Scheme details survive too.
	a, _ := back.Scheme().Attr("SAL")
	if a.Interp != "step" || a.Domain != value.Ints {
		t.Errorf("scheme attribute metadata lost: %+v", a)
	}
	if len(back.Scheme().Key) != 1 || back.Scheme().Key[0] != "NAME" {
		t.Errorf("key lost: %v", back.Scheme().Key)
	}
}

// TestFloatRoundTripBytes saves floats whose bits Equal cannot tell
// apart or would call unequal to themselves (-0, NaN) beside ordinary
// ones and requires the decoded relation to encode to the same bytes.
func TestFloatRoundTripBytes(t *testing.T) {
	full := lifespan.Interval(0, 99)
	s := schema.MustNew("F", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "X", Domain: value.Floats, Lifespan: full},
	)
	r := core.NewRelation(s)
	for i, f := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), 5e-324, -1.25} {
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("K", value.Int(int64(i))).
			Set("X", 0, 9, value.Float(f)).
			MustBuild())
	}
	b, err := EncodeBytes(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeBytes(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("a decoded float relation encodes to different bytes")
	}
}

func TestDecodeErrors(t *testing.T) {
	r := fixture(t)
	b, err := EncodeBytes(r)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt magic.
	bad := append([]byte(nil), b...)
	bad[0] ^= 0xff
	if _, err := DecodeBytes(bad); err == nil {
		t.Error("corrupt magic must fail")
	}
	// Truncations at every prefix must error, never panic.
	for n := 0; n < len(b); n += 7 {
		if _, err := DecodeBytes(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes must fail", n)
		}
	}
	// Corrupt version.
	bad2 := append([]byte(nil), b...)
	bad2[4] = 0xff
	if _, err := DecodeBytes(bad2); err == nil {
		t.Error("bad version must fail")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := fixture(t)
	b1, err := EncodeBytes(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeBytes(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("encoding must be deterministic")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.hrdm")
	s := NewStore()
	r := fixture(t)
	s.Put(r)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Names(); len(got) != 1 || got[0] != "EMP" {
		t.Fatalf("Names = %v", got)
	}
	lr, ok := back.Get("EMP")
	if !ok || !lr.Equal(r) {
		t.Error("loaded relation differs")
	}
	if _, ok := back.Get("NOPE"); ok {
		t.Error("unknown relation must miss")
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestSizeBytesEconomy(t *testing.T) {
	// The representation-level size must depend on the number of value
	// changes, not on history length — HRDM's core storage advantage.
	full := lifespan.MustParse("{[0,9999]}")
	s := schema.MustNew("R", []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full},
	)
	quiet := core.NewRelation(s)
	quiet.MustInsert(core.NewTupleBuilder(s, full).
		Key("K", value.String_("a")).
		Set("V", 0, 9999, value.Int(1)).
		MustBuild())

	busy := core.NewRelation(s)
	b := core.NewTupleBuilder(s, full).Key("K", value.String_("b"))
	for i := int64(0); i < 10000; i += 2 {
		b.Set("V", chronon.Time(i), chronon.Time(i+1), value.Int(i%7))
	}
	busy.MustInsert(b.MustBuild())

	qs, bs := SizeBytes(quiet), SizeBytes(busy)
	if qs*100 > bs {
		t.Errorf("quiet history (%d bytes) should be >100x smaller than busy (%d bytes)", qs, bs)
	}
}
