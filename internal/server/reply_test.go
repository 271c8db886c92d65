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

// BenchmarkServeScanReply serves one SELECT WHEN SAL > … over a
// loopback connection: query, rendering, encoding and socket write of
// a reply of 1 816 rows and about 300 KB, the size of a scan_join reply.
func BenchmarkServeScanReply(b *testing.B) {
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 2000, HistoryLen: 200, ChangeEvery: 20, ReincarnationProb: 0.3, Seed: 1,
	}))
	srv := New(engine.OpenDB(st), Config{})
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
	line := []byte(fmt.Sprintf(`{"op":"query","q":%q}`+"\n", "SELECT WHEN SAL > 30000 FROM EMP"))
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
