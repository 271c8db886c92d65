package storage

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

var updateFormat = flag.Bool("update-format", false, "rewrite testdata/v3.hrdm from formatStore")

// formatPin is the committed snapshot file TestFormatPinned reads.
var formatPin = filepath.Join("testdata", "v3.hrdm")

// formatStore is the store testdata/v3.hrdm holds: the KINDS relation
// of core's render.golden — every value kind, strings with quotes,
// backslashes, control characters, '|' and non-ASCII text, ±inf
// chronons, singleton intervals and nowhere-defined values — with ±0
// and NaN floats added, and a 64-employee personnel EMP whose salaries
// and departments step over re-hire gaps. Its LSN is 42.
func formatStore(t testing.TB) *Store {
	t.Helper()
	full := lifespan.MustParse("{[-inf,+inf]}")
	ks := schema.MustNew("KINDS", []string{"K", "N"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "N", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "F", Domain: value.Floats, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "B", Domain: value.Bools, Lifespan: full},
		schema.Attribute{Name: "T", Domain: value.Times, Lifespan: full},
		schema.Attribute{Name: "S", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "I", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "X", Domain: value.Ints, Lifespan: lifespan.MustParse("{5}")},
	)
	kinds := core.NewRelation(ks)
	kinds.MustInsert(core.NewTupleBuilder(ks, lifespan.MustParse("{[-inf,-5],0,[7,+inf]}")).
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
	kinds.MustInsert(core.NewTupleBuilder(ks, lifespan.MustParse("{3}")).
		Key("K", value.String_(`quote"back\slash`)).
		Key("N", value.Int(9)).
		SetAt("S", 3, value.String_("pipe|amp&<tag>")).
		SetAt("I", 3, value.Int(-3)).
		MustBuild())
	kinds.MustInsert(core.NewTupleBuilder(ks, lifespan.MustParse("{[1,2],[4,6]}")).
		Key("K", value.String_("a|")).
		Key("N", value.Int(1)).
		Set("F", 1, 2, value.Float(3)).
		Set("F", 4, 6, value.Float(3)).
		Set("S", 1, 2, value.String_("ünï☃ tab\t nul\x00 ls\u2028")).
		Set("S", 4, 6, value.String_("ünï☃ tab\t nul\x00 ls\u2028")).
		MustBuild())
	kinds.MustInsert(core.NewTupleBuilder(ks, lifespan.MustParse("{[1,2]}")).
		Key("K", value.String_("a^")).
		Key("N", value.Int(2)).
		SetAt("T", 2, value.TimeVal(chronon.Max)).
		MustBuild())
	kinds.MustInsert(core.NewTupleBuilder(ks, lifespan.MustParse("{[10,16]}")).
		Key("K", value.String_("zeros")).
		Key("N", value.Int(0)).
		SetAt("F", 10, value.Float(math.Copysign(0, -1))).
		SetAt("F", 12, value.Float(0)).
		Set("F", 14, 15, value.Float(math.NaN())).
		SetAt("F", 16, value.Float(math.NaN())).
		MustBuild())

	hist := lifespan.Interval(0, 999)
	es := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: hist},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: hist, Interp: "step"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: hist, Interp: "step"},
	)
	depts := []string{"Toys", "Shoes", "Books", "Garden"}
	emp := core.NewRelation(es)
	for i := 0; i < 64; i++ {
		lo := chronon.Time(i * 13 % 900)
		hi := lo + chronon.Time(10+i%30)
		ls := lifespan.Interval(lo, hi)
		if i%5 == 0 {
			ls = ls.Union(lifespan.Interval(hi+3, hi+12))
		}
		b := core.NewTupleBuilder(es, ls).Key("NAME", value.String_(fmt.Sprintf("emp%04d", i)))
		sal := int64(25000 + 1000*(i%20))
		for k := 0; k < ls.NumIntervals(); k++ {
			iv := ls.IntervalAt(k)
			for t := iv.Lo; t <= iv.Hi; t += 7 {
				end := min(t+6, iv.Hi)
				b.Set("SAL", t, end, value.Int(sal))
				b.Set("DEPT", t, end, value.String_(depts[(i+int(t)/21)%len(depts)]))
				sal += int64(i%4) * 500
			}
		}
		emp.MustInsert(b.MustBuild())
	}

	st := NewStore()
	st.Put(kinds)
	st.Put(emp)
	st.lsn.Store(42)
	return st
}

// TestFormatPinned pins the store-file format to a file an earlier
// encoder wrote: the current encoder writes formatStore to the same
// bytes, the file loads to formatStore's rendering and LSN, and a save
// of the loaded store is the file again. Regenerate the file only for
// an intentional format change, with -update-format.
func TestFormatPinned(t *testing.T) {
	want := formatStore(t)
	enc := snapshotBytes(t, want)
	if *updateFormat {
		if err := os.WriteFile(formatPin, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(formatPin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, pinned) {
		t.Fatalf("the encoder writes %d bytes that differ from the %d of %s", len(enc), len(pinned), formatPin)
	}
	got, lsn, err := decodeStore(bytes.NewReader(pinned))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("loaded LSN %d, want 42", lsn)
	}
	for _, name := range want.Names() {
		w, _ := want.Get(name)
		g, ok := got.Get(name)
		if !ok {
			t.Fatalf("loaded store lacks %s", name)
		}
		if g.String() != w.String() {
			t.Errorf("%s loads as\n%s\nwant\n%s", name, g, w)
		}
	}
	if names := got.Names(); len(names) != len(want.Names()) {
		t.Fatalf("loaded relations %v, want %v", names, want.Names())
	}
	got.lsn.Store(lsn)
	if again := snapshotBytes(t, got); !bytes.Equal(again, pinned) {
		t.Fatalf("a save of the loaded store is %d bytes that differ from its %d input bytes", len(again), len(pinned))
	}
}
