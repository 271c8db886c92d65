package hql

import (
	"reflect"
	"testing"
)

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  WHEN  SAL = 1  FROM EMP", "SELECT WHEN SAL = $i FROM EMP"},
		{"  TIMESLICE EMP AT {[0, 9]} ", "TIMESLICE EMP AT $L"},
		{"a\t\nb", "a b"},
		{"select when DEPT = 'Toy  Shop' from EMP", "SELECT WHEN DEPT = $s FROM EMP"},
		{`SELECT WHEN DEPT <> "a \' b" FROM EMP`, "SELECT WHEN DEPT != $s FROM EMP"},
		{"SELECT WHEN OK = true AND X=2.5 FROM R", "SELECT WHEN OK = $b AND X = $f FROM R"},
		{"PROJECT NAME ,SAL FROM ( EMP )", "PROJECT NAME, SAL FROM (EMP)"},
		{"SNAPSHOT EMP AT @7", "SNAPSHOT EMP AT $t"},
		{"", ""},
		{"   ", ""},
		{"'unterminated   literal", "'unterminated   literal"},
		{"SELECT  #  x", "SELECT #  x"},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Spellings that differ in whitespace, keyword case or literal values
	// share one shape — the plan cache's key.
	a := NormalizeQuery("SELECT   WHEN NAME =  'emp0001' FROM EMP")
	b := NormalizeQuery("select when NAME = \"emp0002\"  FROM  EMP")
	if a != b {
		t.Fatalf("one shape normalizes two ways: %q vs %q", a, b)
	}
}

// TestLiftParameters: the parameter vector holds each literal's source
// spelling in source order, the parser's slots index it, and Render
// puts it back into the shape as text that parses to the same AST.
func TestLiftParameters(t *testing.T) {
	src := `SELECT WHEN NAME = 'a\'b' AND SAL > -5 DURING {[0,9]} FROM (SNAPSHOT EMP AT @3)`
	shape, lits, ok := Lift(src, nil, nil)
	if !ok {
		t.Fatal("lex failed")
	}
	want := []Literal{{LitString, `'a\'b'`}, {LitInt, "-5"}, {LitLifespan, "{[0,9]}"}, {LitTime, "@3"}}
	if !reflect.DeepEqual(lits, want) {
		t.Fatalf("lits = %v, want %v", lits, want)
	}
	if got := string(shape); got != "SELECT WHEN NAME = $s AND SAL > $i DURING $L FROM (SNAPSHOT EMP AT $t)" {
		t.Fatalf("shape = %q", got)
	}
	if v, err := lits[0].Value(); err != nil || v.AsString() != "a'b" {
		t.Fatalf("string literal decodes to %v, %v", v, err)
	}
	if got := Render(string(shape), lits); got != `SELECT WHEN NAME = "a'b" AND SAL > -5 DURING {[0,9]} FROM (SNAPSHOT EMP AT @3)` {
		t.Fatalf("Render = %q", got)
	}
	e, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := e.(*SelectExpr)
	if sel.Cond.Kids[0].Pred.Slot != 0 || sel.Cond.Kids[1].Pred.Slot != 1 || sel.During.Slot != 2 ||
		sel.Source.(*SnapshotExpr).Slot != 3 {
		t.Fatalf("slots do not follow source order: %+v", sel)
	}
	if _, _, ok := Lift(`SELECT WHEN NAME = $s FROM EMP`, nil, nil); ok {
		t.Fatal("a shape lexed as a query")
	}
}
