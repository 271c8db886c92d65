package hql

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// LitKind is the kind of a literal lifted out of a query text. A
// shape's marker spells it, so two texts of one shape have literals of
// the same kinds in the same places.
type LitKind uint8

const (
	LitInt      LitKind = iota // 42, -7
	LitFloat                   // 2.5
	LitString                  // 'Toys', "Toys"
	LitTime                    // @12
	LitLifespan                // {[0,9]}
	LitBool                    // TRUE, FALSE
)

// markers are the shape's placeholders, indexed by LitKind. '$' lexes
// nowhere else, so a marker cannot be mistaken for a token.
var markers = [...]string{
	LitInt: "$i", LitFloat: "$f", LitString: "$s",
	LitTime: "$t", LitLifespan: "$L", LitBool: "$b",
}

// Literal is one literal lifted out of a query text: its kind and its
// source spelling, quotes, '@' and braces included.
type Literal struct {
	Kind LitKind
	Text string
}

// Lift is the one lexer pass over a query text. It appends to shape the
// text's shape — its tokens one blank apart (none inside parentheses or
// before a comma), keywords upper-cased and '<>' spelled '!=', every
// literal replaced by its kind's marker — and appends to lits the
// literals, in source order: the parameter vector. Two texts lift to one shape exactly when they lex to the same
// tokens but for the values of their literals, so a shape is a plan
// cache key and the parser's slot numbers (token.slot) index lits.
//
// ok is false when src does not lex. The shape then ends with the rest
// of src, verbatim from the token that fails; such a text fails in the
// parser too, and never reaches the plan cache.
func Lift(src string, shape []byte, lits []Literal) (_ []byte, _ []Literal, ok bool) {
	lx := lexer{src: src}
	prev := tokLParen // no blank before the first token
	for {
		t, err := lx.next()
		if t.kind == tokEOF && err == nil {
			return shape, lits, true
		}
		if prev != tokLParen && t.kind != tokRParen && t.kind != tokComma {
			shape = append(shape, ' ')
		}
		prev = t.kind
		if err != nil {
			return append(shape, src[t.pos:]...), lits, false
		}
		if k, ok := t.lit(); ok {
			shape = append(shape, markers[k]...)
			lits = append(lits, Literal{Kind: k, Text: src[t.pos:lx.pos]})
			continue
		}
		shape = append(shape, t.text...)
	}
}

// NormalizeQuery returns src's shape (see Lift): the text the engine's
// plan cache keys a query by, so texts differing only in whitespace,
// keyword case or literal values share one cached plan. It is
// idempotent, keeps valid UTF-8 valid, and never changes whether a text
// parses: a shape is not itself a query.
func NormalizeQuery(src string) string {
	var buf [128]byte
	var lits [8]Literal
	shape, _, _ := Lift(src, buf[:0], lits[:0])
	return string(shape)
}

// Render re-renders a shape with a parameter vector: each marker
// becomes its literal — a string re-quoted by strconv.Quote from the
// value the lexer decodes, TRUE and FALSE upper-cased, every other
// literal as written. The result lexes to the shape's tokens with these
// literals' values, so it parses to the AST of any text that lifted to
// them.
func Render(shape string, lits []Literal) string {
	b := make([]byte, 0, len(shape)+16*len(lits))
	for _, l := range lits {
		i := strings.IndexByte(shape, '$')
		if i < 0 {
			break
		}
		b = append(b, shape[:i]...)
		shape = shape[i+len(markers[l.Kind]):]
		switch l.Kind {
		case LitString:
			b = strconv.AppendQuote(b, unescape(l.Text[1:len(l.Text)-1], l.Text[0]))
		case LitBool:
			b = append(b, strings.ToUpper(l.Text)...)
		default:
			b = append(b, l.Text...)
		}
	}
	return string(append(b, shape...))
}

// Value decodes a value literal — any kind but LitLifespan, whose text
// lifespan.Parse reads — exactly as the parser decodes the same token.
func (l Literal) Value() (value.Value, error) {
	text := l.Text
	switch l.Kind {
	case LitString:
		text = unescape(text[1:len(text)-1], text[0])
	case LitTime:
		text = text[1:]
	}
	return literalValue(l.Kind, text)
}

// literalValue decodes a value literal from its token text: the digits
// of a number or a time ('@' stripped), the decoded contents of a
// string, the keyword TRUE or FALSE.
func literalValue(k LitKind, text string) (value.Value, error) {
	switch k {
	case LitInt:
		n, err := strconv.ParseInt(text, 10, 64)
		return value.Int(n), err
	case LitFloat:
		f, err := strconv.ParseFloat(text, 64)
		return value.Float(f), err
	case LitTime:
		n, err := strconv.ParseInt(text, 10, 64)
		return value.TimeVal(chTime(n)), err
	case LitBool:
		return value.Bool(strings.EqualFold(text, "TRUE")), nil
	}
	return value.String_(text), nil
}
