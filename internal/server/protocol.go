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
	"encoding/json"
	"time"

	"repro/internal/hql"
	"repro/internal/hrdmerr"
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

// response is one server line. Exactly one payload field is populated
// per op; Error is set instead when OK is false.
type response struct {
	OK        bool            `json:"ok"`
	Result    string          `json:"result,omitempty"`    // query: rendered result
	Rows      int             `json:"rows,omitempty"`      // query: result cardinality
	Text      string          `json:"text,omitempty"`      // explain: rendered plan
	Staged    int             `json:"staged,omitempty"`    // stage: tuples staged so far
	Committed int             `json:"committed,omitempty"` // commit: tuples published
	Metrics   json.RawMessage `json:"metrics,omitempty"`   // metrics: registry snapshot
	Error     *wireError      `json:"error,omitempty"`

	query     *hql.Result // query: the result replyWriter renders into Result (not sent)
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
