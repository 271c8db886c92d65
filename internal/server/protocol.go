// Package server exposes one engine.DB to many concurrent clients over
// a line-oriented JSON protocol on TCP: one request object per line in,
// one response object per line out, in order, per connection. Each
// connection owns an engine.Session — pinned-snapshot reads and at most
// one staged write group — while the plan cache, metrics registry and
// store are shared across sessions, so two clients issuing the same
// query text share one compiled plan.
//
// The protocol (see docs/SERVER.md for the full spec):
//
//	{"op":"ping"}
//	{"op":"query","q":"SELECT WHEN SAL = 30000 FROM EMP"}
//	{"op":"explain","q":"EMP","analyze":true}
//	{"op":"begin_group"}
//	{"op":"stage","rel":"EMP","tuple":"tuple {[0,9]}; NAME = \"x\" @ {[0,9]}"}
//	{"op":"commit"}
//	{"op":"abort"}
//	{"op":"metrics"}
//
// Every response carries "ok"; failures carry an error envelope with
// the stable numeric code and class name of the hrdmerr taxonomy:
//
//	{"ok":false,"error":{"code":7,"class":"overloaded","msg":"..."}}
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/value"
)

// request is one client line, read by decoder. Fields beyond Op are
// op-specific; unknown fields are ignored so clients can be newer than
// the server. The json tags name the wire keys, for clients that encode
// requests with encoding/json.
type request struct {
	Op      string `json:"op"`
	Q       string `json:"q,omitempty"`
	Rel     string `json:"rel,omitempty"`
	Tuple   string `json:"tuple,omitempty"`
	Analyze bool   `json:"analyze,omitempty"`
}

// decoder reads request lines by hand. It accepts exactly the lines
// json.Unmarshal accepts into a request, with the same field values, as
// FuzzRequestDecode checks: keys match as bytes.EqualFold matches them,
// the last of a repeated key wins, null leaves a field as it was, and
// unknown keys are skipped. Each string field is one conversion from
// buf: nothing aliases the line, which the scanner reuses.
type decoder struct {
	s     []byte // the line
	i     int    // read position in s
	depth int    // open objects and arrays, at most encoding/json's 10000
	buf   []byte // the last string read, unescaped
}

// decode reads line into req, which it leaves as json.Unmarshal would;
// a line it refuses is a bad_request.
func (d *decoder) decode(line []byte, req *request) error {
	d.s, d.i, d.depth = line, 0, 0
	d.ws()
	var err error
	switch {
	case d.lit("null"):
	case d.lit("{"):
		err = d.each("}", func(key []byte) error { return d.member(req, key) })
	default:
		err = errors.New("a request is a JSON object")
	}
	if d.ws(); err == nil && d.i < len(d.s) {
		err = d.syntaxErr()
	}
	if err != nil {
		return hrdmerr.New(hrdmerr.CodeBadRequest, "malformed request: %v", err)
	}
	return nil
}

// member reads the value of the request's member key into req.
func (d *decoder) member(req *request, key []byte) error {
	var dst *string
	switch {
	case bytes.EqualFold(key, []byte("op")):
		dst = &req.Op
	case bytes.EqualFold(key, []byte("q")):
		dst = &req.Q
	case bytes.EqualFold(key, []byte("rel")):
		dst = &req.Rel
	case bytes.EqualFold(key, []byte("tuple")):
		dst = &req.Tuple
	case !bytes.EqualFold(key, []byte("analyze")):
		return d.skip()
	case d.lit("true"):
		req.Analyze = true
	case d.lit("false"):
		req.Analyze = false
	case !d.lit("null"):
		return errors.New("analyze is not a boolean")
	}
	if dst == nil || d.lit("null") {
		return nil
	}
	if !d.lit(`"`) {
		return fmt.Errorf("%q is not a string", key)
	}
	if err := d.str(); err != nil {
		return err
	}
	*dst = string(d.buf)
	return nil
}

// each reads the rest of an object or array, which end closes, calling
// elem at each value, with the value's key (nil in an array).
func (d *decoder) each(end string, elem func(key []byte) error) error {
	if d.depth++; d.depth > 10000 {
		return errors.New("nested too deeply")
	}
	d.ws()
	for first := true; !d.lit(end); first = false {
		if !first && !d.lit(",") {
			return d.syntaxErr()
		}
		var key []byte
		if d.ws(); end == "}" {
			if !d.lit(`"`) {
				return d.syntaxErr()
			}
			if err := d.str(); err != nil {
				return err
			}
			if d.ws(); !d.lit(":") {
				return d.syntaxErr()
			}
			key = d.buf
			d.ws()
		}
		if err := elem(key); err != nil {
			return err
		}
		d.ws()
	}
	d.depth--
	return nil
}

// skip reads past the value at d.i.
func (d *decoder) skip() error {
	switch {
	case d.lit("{"):
		return d.each("}", func([]byte) error { return d.skip() })
	case d.lit("["):
		return d.each("]", func([]byte) error { return d.skip() })
	case d.lit(`"`):
		return d.str()
	case d.lit("true"), d.lit("false"), d.lit("null"):
		return nil
	}
	d.lit("-") // else a number
	ok := (d.lit("0") || d.digits()) && (!d.lit(".") || d.digits())
	if ok && (d.lit("e") || d.lit("E")) {
		_ = d.lit("+") || d.lit("-")
		ok = d.digits()
	}
	if !ok {
		return d.syntaxErr()
	}
	return nil
}

// str reads the rest of a string into buf, unescaped as encoding/json
// unescapes it: an escaped surrogate pair is one rune; any other escaped
// surrogate, and each byte that is not UTF-8, is U+FFFD.
func (d *decoder) str() error {
	d.buf = d.buf[:0]
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return nil
		case c < ' ':
			return d.syntaxErr()
		case c == '\\' && d.u4(d.i) >= 0:
			r := d.u4(d.i)
			if d.i += 6; utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, d.u4(d.i)); r != utf8.RuneError {
					d.i += 6
				}
			}
			d.buf = utf8.AppendRune(d.buf, r)
		case c == '\\':
			k := -1
			if d.i++; d.i < len(d.s) {
				k = strings.IndexByte(`"\/bfnrt`, d.s[d.i])
			}
			if k < 0 {
				return d.syntaxErr()
			}
			d.buf = append(d.buf, "\"\\/\b\f\n\r\t"[k])
			d.i++
		case c < utf8.RuneSelf:
			d.buf = append(d.buf, c)
			d.i++
		default:
			r, n := utf8.DecodeRune(d.s[d.i:])
			d.buf = utf8.AppendRune(d.buf, r)
			d.i += n
		}
	}
	return d.syntaxErr()
}

// u4 returns the value of the \uXXXX escape at s[at:], or -1.
func (d *decoder) u4(at int) rune {
	if at+6 <= len(d.s) && d.s[at] == '\\' && d.s[at+1] == 'u' {
		if n, err := strconv.ParseUint(string(d.s[at+2:at+6]), 16, 32); err == nil {
			return rune(n)
		}
	}
	return -1
}

func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *decoder) ws() {
	for d.i < len(d.s) && (d.s[d.i] == ' ' || d.s[d.i] == '\t' || d.s[d.i] == '\n' || d.s[d.i] == '\r') {
		d.i++
	}
}

// lit reads s if it comes next.
func (d *decoder) lit(s string) bool {
	if len(d.s)-d.i >= len(s) && string(d.s[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

func (d *decoder) syntaxErr() error {
	return fmt.Errorf("invalid JSON at offset %d of %d", d.i, len(d.s))
}

// response is one server line, written by appendResponse. Exactly one
// payload field is populated per op; Error is set instead when OK is
// false. The json tags name the wire fields, in wire order, for
// clients that decode replies with encoding/json.
type response struct {
	OK        bool            `json:"ok"`
	Result    string          `json:"result,omitempty"`    // ping: "pong"; query: rendered from query
	Rows      int             `json:"rows,omitempty"`      // query: result cardinality
	Text      string          `json:"text,omitempty"`      // explain: rendered plan
	Staged    int             `json:"staged,omitempty"`    // stage: tuples staged so far
	Committed int             `json:"committed,omitempty"` // commit: tuples published
	Metrics   json.RawMessage `json:"metrics,omitempty"`   // metrics: registry snapshot
	Error     *wireError      `json:"error,omitempty"`

	query     *hql.Result // query: the result appendResponse renders as "result" (not sent)
	rendering time.Time   // query: when result rendering began (not sent)
}

// wireError is the frozen error envelope: code is the stable numeric
// wire code (hrdmerr.Code), class its name, msg the human message
// without the class prefix.
type wireError struct {
	Code  int    `json:"code"`
	Class string `json:"class"`
	Msg   string `json:"msg"`
}

// errResponse classifies err into the wire envelope.
func errResponse(err error) response {
	code := hrdmerr.CodeOf(err)
	return response{Error: &wireError{
		Code:  int(code),
		Class: code.String(),
		Msg:   hrdmerr.Message(err),
	}}
}

// appendResponse appends resp to dst as one reply line: the bytes
// json.Encoder, HTML escaping off, writes for it — fields in struct
// order, zero omitempty fields left out, the metrics payload compacted,
// a trailing newline. A query's result is not taken from Result but
// rendered straight into the line in value.Wire form, which is already
// JSON-escaped; its rendering is never empty. The one error is a
// metrics payload that is not valid JSON.
func appendResponse(dst []byte, resp response) ([]byte, error) {
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	if resp.query != nil {
		dst = append(resp.query.AppendForm(append(dst, `,"result":"`...), value.Wire), '"')
	} else {
		dst = appendStringField(dst, `,"result":"`, resp.Result)
	}
	dst = appendIntField(dst, `,"rows":`, resp.Rows)
	dst = appendStringField(dst, `,"text":"`, resp.Text)
	dst = appendIntField(dst, `,"staged":`, resp.Staged)
	dst = appendIntField(dst, `,"committed":`, resp.Committed)
	if len(resp.Metrics) > 0 {
		b := bytes.NewBuffer(append(dst, `,"metrics":`...))
		if err := json.Compact(b, resp.Metrics); err != nil {
			return dst, err
		}
		dst = b.Bytes()
	}
	if e := resp.Error; e != nil {
		dst = strconv.AppendInt(append(dst, `,"error":{"code":`...), int64(e.Code), 10)
		dst = value.Wire.Escape(append(dst, `,"class":"`...), e.Class)
		dst = value.Wire.Escape(append(dst, `","msg":"`...), e.Msg)
		dst = append(dst, `"}`...)
	}
	return append(dst, "}\n"...), nil
}

// appendStringField appends an omitempty string field: its opening
// (the key and the value's opening quote), s escaped, the closing quote.
func appendStringField(dst []byte, open, s string) []byte {
	if s == "" {
		return dst
	}
	return append(value.Wire.Escape(append(dst, open...), s), '"')
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, key string, n int) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(n), 10)
}
