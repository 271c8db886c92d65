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
	"strconv"
	"time"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
	"repro/internal/value"
)

// request is one client line. Fields beyond Op are op-specific; unknown
// fields are ignored so clients can be newer than the server.
type request struct {
	Op      string `json:"op"`
	Q       string `json:"q,omitempty"`
	Rel     string `json:"rel,omitempty"`
	Tuple   string `json:"tuple,omitempty"`
	Analyze bool   `json:"analyze,omitempty"`
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
