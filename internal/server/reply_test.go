package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestRequestLineNearLimit: the read buffer starts small, yet a request
// line just under maxRequestLine is still read and answered.
func TestRequestLineNearLimit(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())
	prefix := `{"op":"ping","pad":"`
	line := prefix + strings.Repeat("x", maxRequestLine-len(prefix)-8) + `"}`
	if _, err := tc.c.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := tc.recv(t); !resp.OK || resp.Result != "pong" {
		t.Fatalf("%d-byte request: %+v", len(line), resp)
	}
	if resp := tc.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("ping after long line: %+v", resp)
	}
}

// TestRequestLineTrimsOnlyJSONWhitespace: space, tab and CR around a
// request are JSON whitespace and pass; U+0085 and U+00A0, which
// Unicode calls space but JSON does not, make the line a bad request
// (code 11), as json.Unmarshal would.
func TestRequestLineTrimsOnlyJSONWhitespace(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())
	ping := `{"op":"ping"}`
	for _, c := range []struct {
		line string
		ok   bool
	}{
		{" \t" + ping + " \r", true},
		{ping + "\u0085", false},
		{"\u00a0" + ping, false},
	} {
		if _, err := tc.c.Write([]byte(c.line + "\n")); err != nil {
			t.Fatal(err)
		}
		resp := tc.recv(t)
		if c.ok {
			if !resp.OK || resp.Result != "pong" {
				t.Errorf("%q: %+v, want pong", c.line, resp)
			}
			continue
		}
		if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) {
			t.Errorf("%q: %+v, want a bad_request (code %d)", c.line, resp, hrdmerr.CodeBadRequest)
		}
		if err := json.Unmarshal([]byte(c.line), new(request)); err == nil {
			t.Errorf("%q: json.Unmarshal accepts the line", c.line)
		}
	}
}

// TestRequestLineTooLong: a line past maxRequestLine gets one typed
// bad_request reply naming the limit before the server closes the
// connection, not a bare reset.
func TestRequestLineTooLong(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())
	if _, err := tc.c.Write([]byte(strings.Repeat("x", maxRequestLine+1) + "\n")); err != nil {
		t.Fatal(err)
	}
	resp := tc.recv(t)
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) ||
		!strings.Contains(resp.Error.Msg, fmt.Sprint(maxRequestLine)) {
		t.Fatalf("over-long line: %+v, want bad_request naming the %d-byte limit", resp, maxRequestLine)
	}
	if line, err := tc.r.ReadString('\n'); err == nil {
		t.Fatalf("connection still open after the over-long line, read %q", line)
	}
}

// TestQueryReplyUnescaped: a rendering full of '<', '>' and '&' goes out
// without JSON's HTML escapes and decodes to exactly what Session.Query
// renders; the reply is timed in server.render_ns.
func TestQueryReplyUnescaped(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())
	for _, req := range []request{
		{Op: "begin_group"},
		{Op: "stage", Rel: "EMP", Tuple: `tuple {[20,29]}; NAME = "R&D <lead>" @ {[20,29]}; SAL = 50000 @ {[20,29]}`},
		{Op: "commit"},
	} {
		if resp := tc.do(t, req); !resp.OK {
			t.Fatalf("%s: %+v", req.Op, resp)
		}
	}
	before := obs.Default.Histogram("server.render_ns").Snapshot().Count

	q := `SELECT WHEN SAL > 0 FROM EMP`
	tc.send(t, request{Op: "query", Q: q})
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := tc.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(raw, "\\u003c") || strings.Contains(raw, "\\u003e") || strings.Contains(raw, "\\u0026") {
		t.Errorf("reply carries HTML escapes: %s", raw)
	}
	var resp response
	if err := json.Unmarshal([]byte(raw), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := srv.db.NewSession().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Result, "R&D <lead>") || resp.Result != want.String() {
		t.Errorf("served result\n%s\nwant Session.Query rendering\n%s", resp.Result, want.String())
	}
	if after := obs.Default.Histogram("server.render_ns").Snapshot().Count; after <= before {
		t.Errorf("server.render_ns count %d → %d, want it to grow", before, after)
	}
}

// personnelDB is a 2 000-employee EMP history. Its scanQuery reply is
// 1 816 rows and about 300 KB, the size of a scan_join reply.
func personnelDB() *engine.DB {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 2000, HistoryLen: 200, ChangeEvery: 20, ReincarnationProb: 0.3, Seed: 1,
	}))
	return engine.OpenDB(st)
}

const scanQuery = "SELECT WHEN SAL > 30000 FROM EMP"

// TestQueryReplyBytesUnchanged: rendering into the connection's reused
// buffer and encoding through a string alias over it sends, for every
// result sort, exactly the line json.Encoder (HTML escaping off) makes
// of the result's String rendering. A long reply followed by a short
// one on the same connection shows the reused buffer leaks no bytes
// from one reply into the next.
func TestQueryReplyBytesUnchanged(t *testing.T) {
	srv := New(personnelDB(), Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	tc := dialT(t, srv.Addr())
	queries := []string{
		scanQuery,                             // relation, about 300 KB
		`SELECT IF NAME = "emp0007" FROM EMP`, // one row, after the long reply
		`WHEN (SELECT WHEN SAL > 40000 FROM EMP)`,
		`SNAPSHOT EMP AT 7`,
		`SELECT WHEN SAL < 0 FROM EMP`, // empty relation
		`EMP`,                          // a pinned view, rendered by sorting
	}
	for i, q := range queries {
		tc.send(t, request{Op: "query", Q: q})
		tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := tc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.db.NewSession().Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		switch {
		case res.Relation != nil:
			rows = res.Relation.Cardinality()
		case res.Snapshot != nil:
			rows = res.Snapshot.Cardinality()
		}
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(response{OK: true, Result: res.String(), Rows: rows}); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Errorf("%s: served line differs from the encoded String rendering\n got %.300s\nwant %.300s", q, got, want.String())
		}
		if i == 0 && len(got) < 200_000 {
			t.Fatalf("%s: %d-byte reply, want one of about 300 KB", q, len(got))
		}
	}
}

// discardConn is a connection whose writes always succeed and go
// nowhere: replyWriter's cost without a socket.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplyAllocsIndependentOfResultSize: on a warm connection, a query
// reply is rendered into the reused buffer and encoded from it without a
// copy, so a 1 816-row reply makes no more allocations than a one-row
// reply.
func TestReplyAllocsIndependentOfResultSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sess := personnelDB().NewSession()
	w := newReplyWriter()
	allocs := func(q string) float64 {
		res, err := sess.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		resp := response{OK: true, Rows: res.Relation.Cardinality(), query: &res}
		return testing.AllocsPerRun(10, func() {
			if err := w.write(discardConn{}, resp); err != nil {
				t.Fatal(err)
			}
		})
	}
	large := allocs(scanQuery) // also warms the buffers
	small := allocs(`SELECT IF NAME = "emp0007" FROM EMP`)
	if large > small {
		t.Errorf("reply encoding: %.0f allocations for 1 816 rows, %.0f for one row; want no growth with result size", large, small)
	}
}

// TestAppendResponseMatchesEncoder: appendResponse writes, for every
// op's success reply and every wire error code, the line json.Encoder
// (HTML escaping off) writes for the same response — the same field
// order, the same omitempty rules, the metrics payload compacted. A
// query reply's result, rendered by appendResponse in wire form, is
// given to the encoder as its String rendering. Error messages carry
// quotes, backslashes, newlines, control bytes, invalid UTF-8 and
// U+2028/U+2029.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	srv := New(engine.OpenDB(workload.Demo()), Config{})
	sess := srv.db.NewSession()
	type step struct {
		name string
		req  request
	}
	var cases []struct {
		name string
		resp response
	}
	add := func(name string, resp response) {
		cases = append(cases, struct {
			name string
			resp response
		}{name, resp})
	}
	for _, st := range []step{
		{"ping", request{Op: "ping"}},
		{"begin_group", request{Op: "begin_group"}},
		{"stage", request{Op: "stage", Rel: "EMP", Tuple: `tuple {[20,29]}; NAME = "R&D \"q\" back\\slash <lead> ünï" @ {[20,29]}; SAL = 50000 @ {[20,29]}`}},
		{"commit", request{Op: "commit"}},
		{"begin_group then abort", request{Op: "begin_group"}},
		{"abort", request{Op: "abort"}},
		{"query relation", request{Op: "query", Q: `SELECT WHEN SAL > 0 FROM EMP`}},
		{"query one row", request{Op: "query", Q: `SELECT IF NAME = "John" FROM EMP`}},
		{"query empty relation", request{Op: "query", Q: `SELECT WHEN SAL < 0 FROM EMP`}},
		{"query lifespan", request{Op: "query", Q: `WHEN EMP`}},
		{"query snapshot", request{Op: "query", Q: `SNAPSHOT EMP AT 25`}},
		{"explain", request{Op: "explain", Q: `EMP JOIN DEPTREL ON DEPT = DNAME`}},
		{"explain analyze", request{Op: "explain", Q: `EMP JOIN DEPTREL ON DEPT = DNAME`, Analyze: true}},
		{"metrics", request{Op: "metrics"}},
		{"unknown op", request{Op: "no\"such\nop"}},
	} {
		resp := srv.handle(sess, st.req)
		if !resp.OK && st.name != "unknown op" {
			t.Fatalf("%s: %+v", st.name, resp.Error)
		}
		add(st.name, resp)
	}
	msgs := []string{
		"plain message",
		`quote " and backslash \`,
		"line one\nline two\r\n\ttabbed",
		"control \x00\x01\x08\x0c\x1f\x7f bytes",
		"invalid \xff\xfe utf-8 \xc3",
		"separators \u2028 and \u2029, markup <&>, ünï☃",
	}
	for code := hrdmerr.CodeInternal; code <= hrdmerr.CodeBadRequest; code++ {
		for _, msg := range msgs {
			add(fmt.Sprintf("error %d %q", code, msg), errResponse(hrdmerr.New(code, "%s", msg)))
		}
	}
	add("metrics, indented payload", response{OK: true, Metrics: json.RawMessage("{\n  \"a\": [1, 2],\n  \"b\": \"x y\"\n}\n")})
	add("zero response", response{})

	for _, c := range cases {
		got, err := appendResponse(nil, c.resp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		enc := c.resp
		if enc.query != nil {
			enc.Result = enc.query.String()
		}
		var want strings.Builder
		e := json.NewEncoder(&want)
		e.SetEscapeHTML(false)
		if err := e.Encode(enc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != want.String() {
			t.Errorf("%s: appendResponse\n%s\nwant json.Encoder's\n%s", c.name, got, want.String())
		}
	}
}

// TestSnapshotRenderAllocsIndependentOfRows: a SNAPSHOT result renders
// into a reused buffer with a number of allocations that does not grow
// with its row count, in either form — each key is encoded once, into
// recycled scratch, and the rows are appended.
func TestSnapshotRenderAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sess := personnelDB().NewSession()
	for _, f := range []value.Form{value.Text, value.Wire} {
		var buf []byte
		allocs := func(q string) (float64, int) {
			res, err := sess.Query(context.Background(), q)
			if err != nil || res.Snapshot == nil {
				t.Fatalf("%s: %v, %+v", q, err, res)
			}
			buf = res.AppendForm(buf[:0], f) // warms the buffer
			return testing.AllocsPerRun(10, func() { buf = res.AppendForm(buf[:0], f) }), res.Snapshot.Cardinality()
		}
		large, n := allocs(`SNAPSHOT EMP AT 150`)
		small, m := allocs(`SNAPSHOT EMP AT 7`)
		if n <= m {
			t.Fatalf("snapshots of %d and %d rows, want the first larger", n, m)
		}
		if large > small {
			t.Errorf("form %d: %.0f allocations for %d rows, %.0f for %d; want no growth with row count", f, large, n, small, m)
		}
	}
}

// BenchmarkServeScanReply serves scanQuery over a loopback connection:
// query, rendering, encoding and socket write of a reply of 1 816 rows
// and about 300 KB, the size of a scan_join reply.
func BenchmarkServeScanReply(b *testing.B) {
	srv := New(personnelDB(), Config{})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReaderSize(c, 1<<20)
	line := []byte(fmt.Sprintf(`{"op":"query","q":%q}`+"\n", scanQuery))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Write(line); err != nil {
			b.Fatal(err)
		}
		reply, err := r.ReadBytes('\n')
		if err != nil {
			b.Fatal(err)
		}
		if !strings.HasPrefix(string(reply), `{"ok":true`) {
			b.Fatalf("reply: %.200s", reply)
		}
	}
}

// TestServedLookupAllocs pins the allocations of one served point
// lookup on a warm connection with the default 30s query deadline:
// decoding its line, handling it, and appending its reply line. It read
// 25 with encoding/json decoding the line, a context.WithTimeout per
// query and the key probe rendering its value.
func TestServedLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := New(engine.OpenDB(workload.Demo()), Config{QueryDeadline: 30 * time.Second})
	sess := srv.db.NewSession()
	qc := newQueryCtx(srv.baseCtx)
	defer qc.close()
	line := []byte(`{"op":"query","q":"SELECT WHEN NAME = 'John' FROM EMP"}`)
	var dec decoder
	var buf []byte
	n := testing.AllocsPerRun(100, func() {
		var req request
		if err := dec.decode(line, &req); err != nil {
			t.Fatal(err)
		}
		resp := srv.handleIn(qc, sess, req)
		if !resp.OK || resp.Rows != 1 {
			t.Fatalf("lookup: %+v", resp)
		}
		var err error
		if buf, err = appendResponse(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	})
	if n > 13 {
		t.Errorf("served lookup: %.0f allocations, want at most 13", n)
	}
	t.Logf("served lookup: %.0f allocations", n)
}
