package hql

import (
	"slices"
	"testing"
	"unicode/utf8"

	"repro/internal/value"
)

// fuzzSeeds spans the grammar: every operator family, quoting styles,
// comments-of-errors (malformed inputs that must fail cleanly), and
// whitespace variants the normalizer collapses.
var fuzzSeeds = []string{
	`SELECT WHEN SAL = 30000 FROM EMP`,
	`SELECT IF SAL > 1 FORALL FROM EMP`,
	`SELECT WHEN DEPT = 'Toys' AND SAL >= 30000 DURING {[5,15]} FROM EMP`,
	`TIMESLICE EMP AT {[0,9]}`,
	`TIMESLICE EMP AT WHEN (SELECT WHEN SAL = 1 FROM EMP)`,
	`TIMESLICE EMP BY SHIPDATE`,
	`PROJECT NAME, SAL FROM EMP`,
	`RENAME EMP AS E`,
	`EMP JOIN REF ON NAME = RNAME`,
	`EMP OUTERJOIN REF ON NAME /= RNAME`,
	`EMP NATJOIN DEPTREL`,
	`EMP TIMEJOIN SHIP AT SHIPDATE`,
	`(A UNION B) INTERSECT (C MINUS D)`,
	`A UNIONMERGE B`,
	`WHEN EMP`,
	`SNAPSHOT EMP AT 7`,
	`MATERIALIZE EMP`,
	`SELECT WHEN NAME = "dou\"ble" FROM EMP`,
	`SELECT WHEN NAME = 'sin\'gle' FROM EMP`,
	"SELECT\tWHEN \n SAL = 1\r\nFROM  EMP",
	`SELECT WHEN`,
	`{[`,
	`'unterminated`,
	`)( mismatched`,
	"\x00\xff\xfe",
	``,
	`SELECT WHEN OK = TRUE AND X <> 2.5 FROM R`,
	`SNAPSHOT EMP AT @-3`,
	`SELECT WHEN T = @9223372036854775807 FROM R`,
	`SELECT WHEN X = 1.0 FROM R`,
	`TIMESLICE EMP AT {[0,60]} INTERSECT ({[30,90]} UNION WHEN EMP)`,
	`(SELECT WHEN X = 1 FROM (TIMESLICE A AT {[0,9]})) MINUS (WHEN TIMESLICE B AT {3})`,
}

// FuzzParse hardens the HQL lexer and parser against arbitrary input:
// any string must parse or return an error — never panic — and an
// accepted expression's canonical rendering must itself parse to the
// same canonical rendering (String is a fixpoint), which is what the
// engine's plan cache keys rely on.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejection is the expected path for junk
		}
		text := e.String()
		e2, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical rendering does not re-parse:\n src: %q\ntext: %q\nerr: %v", src, text, err)
		}
		if got := e2.String(); got != text {
			t.Fatalf("String is not a fixpoint:\n src: %q\n 1st: %q\n 2nd: %q", src, text, got)
		}
	})
}

// FuzzNormalizeQuery checks the one lexer pass the plan cache keys
// queries by. NormalizeQuery is idempotent, keeps UTF-8 valid, and
// never lets a text that fails to lex reach the cache. For a text that
// lexes, its shape plus its parameters re-render (Render) to a text
// that parses exactly when it does, to the same AST, whose slots index
// the parameters — and the literals of the AST's own rendering; and a
// text drawn with other literals of the same kinds lifts to the same
// shape and lexes to the same token kinds — what serving it from the
// first text's plan relies on.
func FuzzNormalizeQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n1 := NormalizeQuery(src)
		if n2 := NormalizeQuery(n1); n1 != n2 {
			t.Fatalf("NormalizeQuery not idempotent:\n src: %q\n  n1: %q\n  n2: %q", src, n1, n2)
		}
		if utf8.ValidString(src) && !utf8.ValidString(n1) {
			t.Fatalf("NormalizeQuery broke UTF-8: %q -> %q", src, n1)
		}
		shape, lits, ok := Lift(src, nil, nil)
		e1, err1 := Parse(src)
		if !ok {
			if err1 == nil {
				t.Fatalf("text that does not lex parses: %q", src)
			}
			return
		}
		text := Render(string(shape), lits)
		e2, err2 := Parse(text)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("re-rendering changed parse outcome:\n src: %q (%v)\ntext: %q (%v)", src, err1, text, err2)
		}
		if err1 == nil {
			if e1.String() != e2.String() {
				t.Fatalf("re-rendering changed the AST:\n src: %q -> %s\ntext: %q -> %s", src, e1, text, e2)
			}
			checkSlots(t, src, e1, lits)
			// The canonical rendering lists the literals in slot order too.
			_, own, _ := Lift(e1.String(), nil, nil)
			checkSlots(t, src, e1, own)
		}
		other := make([]Literal, len(lits))
		for i, l := range lits {
			other[i] = Literal{Kind: l.Kind, Text: redrawn[l.Kind]}
		}
		drawn := Render(string(shape), other)
		shape2, _, ok2 := Lift(drawn, nil, nil)
		if !ok2 || string(shape2) != string(shape) {
			t.Fatalf("redrawn literals changed the shape:\n src: %q -> %q\ndrawn: %q -> %q", src, shape, drawn, shape2)
		}
		t1, _ := lex(src)
		t2, _ := lex(drawn)
		if !slices.EqualFunc(t1, t2, func(a, b token) bool { return a.kind == b.kind }) {
			t.Fatalf("one shape, two token sequences:\n src: %q\ndrawn: %q", src, drawn)
		}
	})
}

// redrawn holds one literal of each kind, for drawing a second text of
// a fuzzed text's shape.
var redrawn = [...]string{
	LitInt: "-7", LitFloat: "0.5", LitString: `'x\'y'`, LitTime: "@3",
	LitLifespan: "{[1,2]}", LitBool: "false",
}

// checkSlots asserts that every literal of e sits in the slot holding
// its source spelling.
func checkSlots(t *testing.T, src string, e Expr, lits []Literal) {
	t.Helper()
	var cond func(c CondExpr)
	var ls func(l *LSExpr)
	var walk func(e Expr)
	cond = func(c CondExpr) {
		if p := c.Pred; p != nil && p.OtherAttr == "" {
			v, err := lits[p.Slot].Value()
			if err != nil || !v.Equal(p.Const) || v.Kind() != p.Const.Kind() {
				t.Fatalf("%q: constant %v is not slot %d's %v", src, p.Const, p.Slot, lits[p.Slot])
			}
		}
		for _, k := range c.Kids {
			cond(k)
		}
	}
	ls = func(l *LSExpr) {
		switch {
		case l == nil:
		case l.Literal != "":
			if lits[l.Slot].Text != l.Literal {
				t.Fatalf("%q: lifespan %s is not slot %d's %v", src, l.Literal, l.Slot, lits[l.Slot])
			}
		case l.When != nil:
			walk(l.When)
		default:
			ls(l.Left)
			ls(l.Right)
		}
	}
	walk = func(e Expr) {
		switch n := e.(type) {
		case *SelectExpr:
			cond(n.Cond)
			ls(n.During)
			walk(n.Source)
		case *TimesliceExpr:
			walk(n.Source)
			ls(n.At)
		case *SnapshotExpr:
			walk(n.Source)
			v, err := lits[n.Slot].Value()
			if v.Kind() == value.KindTime {
				v = value.Int(int64(v.AsTime()))
			}
			if err != nil || v.AsInt() != n.At {
				t.Fatalf("%q: snapshot time %d is not slot %d's %v", src, n.At, n.Slot, lits[n.Slot])
			}
		case *BinaryExpr:
			walk(n.Left)
			walk(n.Right)
		case *ProjectExpr:
			walk(n.Source)
		case *RenameExpr:
			walk(n.Source)
		case *MaterializeExpr:
			walk(n.Source)
		case *WhenExpr:
			walk(n.Source)
		}
	}
	walk(e)
}
