package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/render.golden")

// kindsRelation covers every rendering case the result path meets: each
// value.Kind, strings that strconv.Quote escapes (quote, backslash,
// non-printable) or EncodeKey escapes ('|', '\'), markup characters and
// non-ASCII text, ±inf interval bounds, singleton intervals, constant
// functions over several intervals and nowhere-defined values. Its
// composite key (K, N) orders by the escaped key string: ("a|", …)
// sorts before ("a^", …) only because EncodeKey writes `\|`, and N
// orders as text (10 before 9).
func kindsRelation(t testing.TB) *Relation {
	t.Helper()
	full := ls("{[-inf,+inf]}")
	s := schema.MustNew("KINDS", []string{"K", "N"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "N", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "F", Domain: value.Floats, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "B", Domain: value.Bools, Lifespan: full},
		schema.Attribute{Name: "T", Domain: value.Times, Lifespan: full},
		schema.Attribute{Name: "S", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "I", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "X", Domain: value.Ints, Lifespan: ls("{5}")},
	)
	r := NewRelation(s)
	r.MustInsert(NewTupleBuilder(s, ls("{[-inf,-5],0,[7,+inf]}")).
		Key("K", value.String_("plain")).
		Key("N", value.Int(10)).
		Set("F", chronon.Min, -5, value.Float(1.5)).
		SetAt("F", 0, value.Float(-0.25)).
		Set("F", 7, chronon.Max, value.Float(1e21)).
		Set("B", chronon.Min, -5, value.Bool(true)).
		SetAt("B", 0, value.Bool(false)).
		SetAt("T", 0, value.TimeVal(chronon.Min)).
		Set("T", 7, chronon.Max, value.TimeVal(42)).
		SetConst("I", value.Int(7)).
		MustBuild())
	r.MustInsert(NewTupleBuilder(s, ls("{3}")).
		Key("K", value.String_(`quote"back\slash`)).
		Key("N", value.Int(9)).
		SetAt("S", 3, value.String_("pipe|amp&<tag>")).
		SetAt("I", 3, value.Int(-3)).
		MustBuild())
	r.MustInsert(NewTupleBuilder(s, ls("{[1,2],[4,6]}")).
		Key("K", value.String_("a|")).
		Key("N", value.Int(1)).
		Set("F", 1, 2, value.Float(3)).
		Set("F", 4, 6, value.Float(3)).
		Set("S", 1, 2, value.String_("ünï☃ tab\t nul\x00 ls\u2028")).
		Set("S", 4, 6, value.String_("ünï☃ tab\t nul\x00 ls\u2028")).
		MustBuild())
	r.MustInsert(NewTupleBuilder(s, ls("{[1,2]}")).
		Key("K", value.String_("a^")).
		Key("N", value.Int(2)).
		SetAt("T", 2, value.TimeVal(chronon.Max)).
		MustBuild())
	return r
}

// renderings lists every golden entry as (name, rendering, wire form)
// triples: the rendering is String, the wire form the same value
// rendered in value.Wire form.
func renderings(t testing.TB) [][3]string {
	t.Helper()
	kinds := kindsRelation(t)
	emp := empRelation(t)
	empty := NewRelation(empScheme())
	out := [][3]string{
		{"Relation KINDS", kinds.String(), string(kinds.AppendForm(nil, value.Wire))},
		{"Relation EMP", emp.String(), string(emp.AppendForm(nil, value.Wire))},
		{"Relation empty", empty.String(), string(empty.AppendForm(nil, value.Wire))},
	}
	for _, tu := range kinds.Tuples() {
		out = append(out, [3]string{"Tuple " + tu.KeyValue("K").String(), tu.String(), string(tu.appendByName(nil, value.Wire))})
	}
	mixed := (&tfunc.Builder{}).Set(0, 4, value.Int(1)).Set(5, 9, value.Float(1)).Build()
	stepped := (&tfunc.Builder{}).Set(chronon.Min, 0, value.Int(1)).SetAt(3, value.Int(2)).Build()
	// A lifespan has one form: it renders only digits, signs and brackets.
	emptyLS, unbounded := lifespan.Empty().String(), lifespan.New(chronon.NewInterval(chronon.Min, chronon.Max)).String()
	out = append(out,
		[3]string{"Lifespan empty", emptyLS, emptyLS},
		[3]string{"Lifespan unbounded", unbounded, unbounded},
		[3]string{"Func nowhere-defined", tfunc.Func{}.String(), string(tfunc.Func{}.AppendForm(nil, value.Wire))},
		[3]string{"Func stepped", stepped.String(), string(stepped.AppendForm(nil, value.Wire))},
		[3]string{"Func constant int 1 then float 1", mixed.String(), string(mixed.AppendForm(nil, value.Wire))},
	)
	return out
}

// jsonBody is what encoding/json, HTML escaping off, writes between the
// quotes when it encodes s.
func jsonBody(t testing.TB, s string) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	line := b.String() // "…"\n
	return line[1 : len(line)-2]
}

// TestWireFormIsJSONOfText: on every golden entry, the value.Wire
// rendering is exactly what encoding/json (HTML escaping off) makes of
// the String rendering, so a result rendered in wire form can be
// appended into a JSON reply line as it is.
func TestWireFormIsJSONOfText(t *testing.T) {
	for _, e := range renderings(t) {
		if want := jsonBody(t, e[1]); e[2] != want {
			t.Errorf("%s: wire form\n%s\nwant the JSON encoding of its String\n%s", e[0], e[2], want)
		}
	}
}

// FuzzWireForm: for an arbitrary string, held as a key and as a
// stepped value in a two-row relation, the relation's wire form is the
// JSON encoding of its text form, and value.Wire.Escape of the string
// is the JSON encoding of the string. The seeds are the kindsRelation
// strings that need escaping in one form or the other.
func FuzzWireForm(f *testing.F) {
	for _, s := range []string{"plain", `quote"back\slash`, "pipe|amp&<tag>", "ünï☃ tab\t nul\x00 ls\u2028", "ps\u2029 cr\r bs\b ff\f del\x7f", "bad\xffutf8\xc3", ""} {
		f.Add(s)
	}
	s := empScheme()
	f.Fuzz(func(t *testing.T, str string) {
		r := NewRelation(s)
		r.MustInsert(NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("NAME", value.String_(str)).
			Set("DEPT", 0, 4, value.String_(str)).
			Set("DEPT", 5, 9, value.String_(str+"x")).
			MustBuild())
		r.MustInsert(NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("NAME", value.String_(str+"|")).
			SetConst("SAL", value.Int(1)).
			MustBuild())
		if got, want := string(r.AppendForm(nil, value.Wire)), jsonBody(t, r.String()); got != want {
			t.Errorf("%q: wire form\n%s\nwant\n%s", str, got, want)
		}
		if got, want := string(value.Wire.Escape(nil, str)), jsonBody(t, str); got != want {
			t.Errorf("Escape(%q) = %s, want %s", str, got, want)
		}
	})
}

// TestRenderGolden freezes Relation.String and Tuple.String byte for
// byte: the served reply of every query is exactly this text, so any
// change to it is a wire-format change. Regenerate with -update only
// for an intentional format change.
func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range renderings(t) {
		fmt.Fprintf(&b, "== %s\n%s\n", e[0], e[1])
	}
	path := filepath.Join("testdata", "render.golden")
	if *updateRender {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("rendering differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRenderAllocs bounds the renderer's allocations per result row:
// the sort key and the output buffer's growth, nothing per value.
func TestRenderAllocs(t *testing.T) {
	r := personnel(t, 1000)
	allocs := testing.AllocsPerRun(5, func() { _ = r.String() })
	if perRow := allocs / 1000; perRow > 2 {
		t.Errorf("Relation.String: %.1f allocations per row (%.0f total), want ≤ 2", perRow, allocs)
	}
}

// TestRenderOneRowAllocs pins a point lookup's reply: a one-row result
// renders into a reused buffer without allocating — the scheme header
// and the tuple are appended, not formatted.
func TestRenderOneRowAllocs(t *testing.T) {
	one := personnel(t, 1)
	row, err := NewRelationFromTuples(one.Scheme(), one.Tuples())
	if err != nil {
		t.Fatal(err)
	}
	buf := row.AppendTo(nil)
	if allocs := testing.AllocsPerRun(20, func() { buf = row.AppendTo(buf[:0]) }); allocs != 0 {
		t.Errorf("one-row Relation.AppendTo: %.0f allocations, want 0", allocs)
	}
}

// personnel builds an n-tuple EMP in which every tuple has a stepped
// salary and a department change, the shape of a scan result.
func personnel(t testing.TB, n int) *Relation {
	t.Helper()
	s := empScheme()
	r := NewRelation(s)
	for i := 0; i < n; i++ {
		lo := chronon.Time(i % 50)
		r.MustInsert(NewTupleBuilder(s, lifespan.Interval(lo, lo+40)).
			Key("NAME", value.String_(fmt.Sprintf("emp%05d", i))).
			Set("SAL", lo, lo+19, value.Int(int64(30000+i))).
			Set("SAL", lo+20, lo+40, value.Int(int64(31000+i))).
			Set("DEPT", lo, lo+9, value.String_("Toys")).
			Set("DEPT", lo+10, lo+40, value.String_("Books")).
			MustBuild())
	}
	return r
}

// BenchmarkRelationString renders a 5 000-tuple relation, the size of
// a large served reply.
func BenchmarkRelationString(b *testing.B) {
	r := personnel(b, 5000)
	b.ReportAllocs()
	for b.Loop() {
		_ = r.String()
	}
}
