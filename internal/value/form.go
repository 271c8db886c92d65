package value

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// Form selects how a rendering is written. Every renderer — Value,
// tfunc.Func, core's tuples and relations, rel.Relation, hql.Result —
// has one body that takes a Form. The two forms differ only where a
// JSON string literal differs from the text: a string value's quotes
// and backslashes, the newline between rows, and names, which are
// written through Escape.
type Form uint8

const (
	// Text is the display rendering String returns.
	Text Form = iota
	// Wire is the Text rendering as the body of a JSON string literal:
	// exactly the bytes encoding/json, with HTML escaping off, writes
	// between the quotes when it encodes the Text rendering. A result
	// rendered in Wire form appends straight into a JSON reply line.
	Wire
)

const hexDigits = "0123456789abcdef"

// Escape appends s to dst: verbatim in Text form; in Wire form as
// encoding/json (HTML escaping off) writes it inside a string literal —
// '"' and '\' backslashed, control bytes as \n, \t, \u00XX and the
// like, invalid UTF-8 as \ufffd, U+2028 and U+2029 as \u2028 and
// \u2029, everything else unchanged.
func (f Form) Escape(dst []byte, s string) []byte {
	if f == Text {
		return append(dst, s...)
	}
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// Newline appends a line break: '\n' in Text form, its escape `\n` in
// Wire form.
func (f Form) Newline(dst []byte) []byte {
	if f == Text {
		return append(dst, '\n')
	}
	return append(dst, '\\', 'n')
}

// appendQuoted appends s as strconv.Quote writes it, in form f. A
// printable-ASCII string without '"' or '\' is its own quoted body, so
// it is copied between the quotes without strconv; any other string is
// quoted by strconv and, in Wire form, the quote's own '"' and '\'
// bytes are backslashed in place. A quoted string holds nothing else
// JSON escapes: strconv writes control bytes, invalid UTF-8 and
// U+2028/U+2029 as escapes.
func (f Form) appendQuoted(dst []byte, s string) []byte {
	q := `"`
	if f == Wire {
		q = `\"`
	}
	if plainASCII(s) {
		return append(append(append(dst, q...), s...), q...)
	}
	start := len(dst)
	// AppendQuote grows a short dst to exactly the quoted size, which
	// copies a long buffer on every call; grow it first.
	dst = strconv.AppendQuote(slices.Grow(dst, len(s)+2), s)
	if f == Wire {
		dst = backslashBefore(dst, start, '"', '\\')
	}
	return dst
}

// plainASCII reports whether every byte of s is printable ASCII other
// than '"' and '\'.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// backslashBefore puts a '\' before every a and b byte of dst[start:],
// in place, shifting the tail right from the end so no second buffer
// is needed.
func backslashBefore(dst []byte, start int, a, b byte) []byte {
	n := 0
	for _, c := range dst[start:] {
		if c == a || c == b {
			n++
		}
	}
	if n == 0 {
		return dst
	}
	end := len(dst)
	dst = append(dst, make([]byte, n)...)
	j := len(dst)
	for i := end - 1; i >= start; i-- {
		j--
		dst[j] = dst[i]
		if dst[i] == a || dst[i] == b {
			j--
			dst[j] = '\\'
		}
	}
	return dst
}
