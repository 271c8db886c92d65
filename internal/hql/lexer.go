package hql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokTime     // @123
	tokLifespan // {...} literal, captured verbatim
	tokTheta    // = != < <= > >=
	tokComma
	tokLParen
	tokRParen
)

// token is one lexical unit with its source position (byte offset).
// slot is a literal token's position among the literals of its query
// text, counted from 0 in source order: the index of its value in the
// parameter vector Lift emits beside the query's shape.
type token struct {
	kind tokenKind
	text string
	pos  int
	slot int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lit reports whether t is a literal, and of which kind: a number, a
// string, a time, a lifespan, or the keyword TRUE or FALSE.
func (t token) lit() (LitKind, bool) {
	switch t.kind {
	case tokInt:
		return LitInt, true
	case tokFloat:
		return LitFloat, true
	case tokString:
		return LitString, true
	case tokTime:
		return LitTime, true
	case tokLifespan:
		return LitLifespan, true
	case tokKeyword:
		return LitBool, t.text == "TRUE" || t.text == "FALSE"
	}
	return 0, false
}

// isKeyword reports whether an upper-cased word is a keyword of the
// language. Identifiers matching one are lexed as keywords
// (case-insensitive).
func isKeyword(w string) bool {
	switch w {
	case "SELECT", "IF", "WHEN", "FROM",
		"FORALL", "EXISTS", "DURING",
		"PROJECT", "TIMESLICE", "AT", "BY",
		"UNION", "UNIONMERGE",
		"INTERSECT", "INTERSECTMERGE",
		"MINUS", "MINUSMERGE",
		"TIMES", "JOIN", "NATJOIN", "TIMEJOIN",
		"ON", "SNAPSHOT", "RENAME", "AS",
		"OUTERJOIN", "MATERIALIZE",
		"TRUE", "FALSE",
		"AND", "OR", "NOT":
		return true
	}
	return false
}

// lexer turns a query string into tokens.
type lexer struct {
	src string
	pos int
}

// lex tokenizes the whole input, numbering its literals in source
// order.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src}
	var out []token
	slots := 0
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		if _, ok := t.lit(); ok {
			t.slot = slots
			slots++
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// fail is next's error return: the offset of the token that does not
// lex, and the error naming it.
func (lx *lexer) fail(pos int, format string, args ...any) (token, error) {
	return token{pos: pos}, fmt.Errorf("hql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// skipSpace skips whitespace as unicode.IsSpace defines it. An ASCII
// byte is judged on its own; anything else rune-wise, since judging
// single bytes would skip the continuation bytes of multibyte runes
// that alias Latin-1 whitespace. Invalid bytes decode to RuneError,
// which is not a space, and fail in next.
func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		if c := lx.src[lx.pos]; c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return
			}
			lx.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		lx.pos += size
	}
}

func (lx *lexer) next() (token, error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '(':
		lx.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		lx.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		lx.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '{':
		// Lifespan literal: capture through the matching brace.
		depth := 0
		for i := lx.pos; i < len(lx.src); i++ {
			switch lx.src[i] {
			case '{':
				depth++
			case '}':
				depth--
				if depth == 0 {
					text := lx.src[lx.pos : i+1]
					lx.pos = i + 1
					return token{kind: tokLifespan, text: text, pos: start}, nil
				}
			}
		}
		return lx.fail(start, "unterminated lifespan literal")
	case c == '"' || c == '\'':
		// A backslash escapes the byte after it; the later bytes of a
		// longer escape sequence are digits, never a quote.
		for i := lx.pos + 1; i < len(lx.src); i++ {
			switch lx.src[i] {
			case '\\':
				i++
			case c:
				lx.pos = i + 1
				return token{kind: tokString, text: unescape(lx.src[start+1:i], c), pos: start}, nil
			}
		}
		return lx.fail(start, "unterminated string literal")
	case c == '@':
		lx.pos++
		num, err := lx.number(start)
		if err != nil {
			return num, err
		}
		if num.kind != tokInt {
			return lx.fail(start, "time literal must be an integer")
		}
		return token{kind: tokTime, text: num.text, pos: start}, nil
	case c == '=':
		lx.pos++
		return token{kind: tokTheta, text: "=", pos: start}, nil
	case c == '!':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokTheta, text: "!=", pos: start}, nil
		}
		return lx.fail(start, "unexpected '!'")
	case c == '<':
		if lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == '=' || lx.src[lx.pos+1] == '>') {
			t := lx.src[lx.pos : lx.pos+2]
			lx.pos += 2
			if t == "<>" {
				t = "!="
			}
			return token{kind: tokTheta, text: t, pos: start}, nil
		}
		lx.pos++
		return token{kind: tokTheta, text: "<", pos: start}, nil
	case c == '>':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokTheta, text: ">=", pos: start}, nil
		}
		lx.pos++
		return token{kind: tokTheta, text: ">", pos: start}, nil
	case c == '-' || c >= '0' && c <= '9':
		return lx.number(start)
	case isIdentStart(c):
		i, lower := lx.pos, false
		for i < len(lx.src) && isIdentPart(lx.src[i]) {
			lower = lower || lx.src[i] >= 'a' && lx.src[i] <= 'z'
			i++
		}
		text := lx.src[lx.pos:i]
		lx.pos = i
		word := text
		if lower {
			word = strings.ToUpper(text)
		}
		if isKeyword(word) {
			return token{kind: tokKeyword, text: word, pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil
	}
	return lx.fail(start, "unexpected character %q", c)
}

func (lx *lexer) number(start int) (token, error) {
	i := lx.pos
	if i < len(lx.src) && lx.src[i] == '-' {
		i++
	}
	digits := 0
	for i < len(lx.src) && lx.src[i] >= '0' && lx.src[i] <= '9' {
		i++
		digits++
	}
	kind := tokInt
	if i < len(lx.src) && lx.src[i] == '.' {
		kind = tokFloat
		i++
		for i < len(lx.src) && lx.src[i] >= '0' && lx.src[i] <= '9' {
			i++
			digits++
		}
	}
	if digits == 0 {
		return lx.fail(start, "malformed number")
	}
	text := lx.src[lx.pos:i]
	lx.pos = i
	return token{kind: kind, text: text, pos: start}, nil
}

// unescape decodes the body of a string literal quoted by quote. Go
// escape sequences (\n, \xHH, \uHHHH, …) decode, so the canonical
// rendering of a string constant — strconv.Quote, which emits them for
// non-printable bytes — lexes back to the same value. An escape strconv
// does not recognize keeps the historical lenient meaning: the next
// byte, literally. A body without a backslash is returned as is.
func unescape(body string, quote byte) string {
	if strings.IndexByte(body, '\\') < 0 {
		return body
	}
	var sb strings.Builder
	for i := 0; i < len(body); {
		if body[i] != '\\' || i+1 == len(body) {
			sb.WriteByte(body[i])
			i++
			continue
		}
		if ch, multibyte, tail, err := strconv.UnquoteChar(body[i:], quote); err == nil {
			if ch < 0x80 || !multibyte {
				sb.WriteByte(byte(ch))
			} else {
				sb.WriteRune(ch)
			}
			i = len(body) - len(tail)
			continue
		}
		sb.WriteByte(body[i+1])
		i += 2
	}
	return sb.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}
