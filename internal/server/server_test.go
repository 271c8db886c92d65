package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hrdmerr"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// startServer builds a demo-store server with cfg, starts it, and
// registers a best-effort shutdown for test exit.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(engine.OpenDB(workload.Demo()), cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// tclient is a minimal protocol client: one request line out, one
// response line back.
type tclient struct {
	c net.Conn
	r *bufio.Reader
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &tclient{c: c, r: bufio.NewReaderSize(c, 1<<20)}
}

func (tc *tclient) send(t *testing.T, req request) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(append(buf, '\n')); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func (tc *tclient) recv(t *testing.T) response {
	t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := tc.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	return resp
}

func (tc *tclient) do(t *testing.T, req request) response {
	t.Helper()
	tc.send(t, req)
	return tc.recv(t)
}

// TestServerProtocol drives every op over one connection: ping, query,
// explain, the write-group lifecycle (staged tuples visible after
// commit), metrics, and the typed error envelope for parse failures,
// operator failures, bad requests and state violations.
func TestServerProtocol(t *testing.T) {
	srv := startServer(t, Config{})
	tc := dialT(t, srv.Addr())

	if resp := tc.do(t, request{Op: "ping"}); !resp.OK || resp.Result != "pong" {
		t.Fatalf("ping = %+v", resp)
	}
	resp := tc.do(t, request{Op: "query", Q: `SELECT WHEN NAME = 'John' FROM EMP`})
	if !resp.OK || resp.Rows != 1 || !strings.Contains(resp.Result, "John") {
		t.Fatalf("query = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "explain", Q: `SELECT WHEN NAME = 'John' FROM EMP`}); !resp.OK || !strings.Contains(resp.Text, "plan-cache") {
		t.Fatalf("explain = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "explain", Q: `EMP`, Analyze: true}); !resp.OK || !strings.Contains(resp.Text, "actual") {
		t.Fatalf("explain analyze = %+v", resp)
	}
	// There are no session settings: `set` is an unknown op like any other.
	if _, err := tc.c.Write([]byte(`{"op":"set","optimize":true}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := tc.recv(t); resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) {
		t.Fatalf("set = %+v, want bad_request", resp)
	}

	// Write-group lifecycle: begin → stage → commit → visible.
	if resp := tc.do(t, request{Op: "begin_group"}); !resp.OK {
		t.Fatalf("begin_group = %+v", resp)
	}
	resp = tc.do(t, request{Op: "stage", Rel: "EMP",
		Tuple: `tuple {[20,29]}; NAME = "Zoe" @ {[20,29]}; SAL = 50000 @ {[20,29]}; DEPT = "Books" @ {[20,29]}`})
	if !resp.OK || resp.Staged != 1 {
		t.Fatalf("stage = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "commit"}); !resp.OK || resp.Committed != 1 {
		t.Fatalf("commit = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "query", Q: `SELECT WHEN NAME = 'Zoe' FROM EMP`}); !resp.OK || resp.Rows != 1 {
		t.Fatalf("query committed tuple = %+v", resp)
	}

	if resp := tc.do(t, request{Op: "metrics"}); !resp.OK || !strings.Contains(string(resp.Metrics), "engine.queries") {
		t.Fatalf("metrics = %+v", resp)
	}

	// Error envelope: stable codes per class.
	cases := []struct {
		req  request
		code hrdmerr.Code
	}{
		{request{Op: "query", Q: `SELECT !! garbage`}, hrdmerr.CodeParse},
		// Planned, then failing in an operator: semantic, as the naive
		// evaluator classifies the same query.
		{request{Op: "query", Q: `EMP UNION (TIMESLICE EMP AT {[0,9]})`}, hrdmerr.CodeSemantic},
		// Refused by compile — operands their operator's scheme rule
		// refuses, an unknown relation, a literal that does not decode:
		// semantic from EXPLAIN too, as from query.
		{request{Op: "query", Q: `EMP UNIONMERGE DEPTREL`}, hrdmerr.CodeSemantic},
		{request{Op: "explain", Q: `EMP UNIONMERGE DEPTREL`, Analyze: true}, hrdmerr.CodeSemantic},
		{request{Op: "explain", Q: `EMP TIMES EMP`}, hrdmerr.CodeSemantic},
		{request{Op: "explain", Q: `NOSUCHREL`}, hrdmerr.CodeSemantic},
		{request{Op: "explain", Q: `TIMESLICE EMP AT {[9,x]}`, Analyze: true}, hrdmerr.CodeSemantic},
		{request{Op: "nope"}, hrdmerr.CodeBadRequest},
		{request{Op: "commit"}, hrdmerr.CodeState},
		{request{Op: "stage", Rel: "EMP", Tuple: "x"}, hrdmerr.CodeState},
	}
	for _, c := range cases {
		resp := tc.do(t, c.req)
		if resp.OK || resp.Error == nil || resp.Error.Code != int(c.code) {
			t.Fatalf("op %s: resp = %+v, want error code %d", c.req.Op, resp, c.code)
		}
		if resp.Error.Class != c.code.String() {
			t.Fatalf("op %s: class = %q, want %q", c.req.Op, resp.Error.Class, c.code)
		}
	}

	// Malformed JSON keeps the connection alive with a bad_request.
	if _, err := tc.c.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if resp := tc.recv(t); resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeBadRequest) {
		t.Fatalf("malformed line = %+v", resp)
	}
	if resp := tc.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("connection dead after malformed line: %+v", resp)
	}
}

// TestAdmissionInflight: with one inflight slot held, the next query is
// rejected immediately with the typed overloaded error — and succeeds
// once the slot frees.
func TestAdmissionInflight(t *testing.T) {
	srv := startServer(t, Config{MaxInflight: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	blocked := dialT(t, srv.Addr())
	blocked.send(t, request{Op: "query", Q: `EMP`})
	<-entered

	fast := dialT(t, srv.Addr())
	resp := fast.do(t, request{Op: "query", Q: `EMP`})
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeOverloaded) {
		t.Fatalf("over-limit query = %+v, want overloaded (code %d)", resp, hrdmerr.CodeOverloaded)
	}

	close(release)
	if resp := blocked.recv(t); !resp.OK {
		t.Fatalf("held query after release = %+v", resp)
	}
	if resp := fast.do(t, request{Op: "query", Q: `EMP`}); !resp.OK {
		t.Fatalf("query after slot freed = %+v", resp)
	}
}

// TestAdmissionMaxConns: a connection past the limit is answered with
// one typed overloaded line and closed, not left hanging.
func TestAdmissionMaxConns(t *testing.T) {
	srv := startServer(t, Config{MaxConns: 1})
	keeper := dialT(t, srv.Addr())
	if resp := keeper.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("first conn ping = %+v", resp)
	}
	over := dialT(t, srv.Addr())
	resp := over.recv(t)
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeOverloaded) {
		t.Fatalf("over-limit conn = %+v, want overloaded", resp)
	}
	if _, err := over.r.ReadByte(); err == nil {
		t.Fatal("rejected connection was not closed")
	}
	// The admitted connection is unaffected.
	if resp := keeper.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("keeper ping after rejection = %+v", resp)
	}
}

// TestQueryDeadline: a query that outlives the per-query deadline
// aborts with the typed deadline error instead of hanging the
// connection.
func TestQueryDeadline(t *testing.T) {
	srv := startServer(t, Config{QueryDeadline: 50 * time.Millisecond})
	srv.testHold = func(ctx context.Context, op string) { <-ctx.Done() }
	tc := dialT(t, srv.Addr())
	resp := tc.do(t, request{Op: "query", Q: `EMP`})
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeDeadline) {
		t.Fatalf("deadline query = %+v, want deadline (code %d)", resp, hrdmerr.CodeDeadline)
	}
}

// TestQueryDeadlineNextRequestLive: after a query expires with the
// typed deadline error, the next query on the same connection runs
// under a live context and succeeds.
func TestQueryDeadlineNextRequestLive(t *testing.T) {
	srv := startServer(t, Config{QueryDeadline: 20 * time.Millisecond})
	var held atomic.Bool
	srv.testHold = func(ctx context.Context, op string) {
		if held.CompareAndSwap(false, true) {
			<-ctx.Done()
		}
	}
	tc := dialT(t, srv.Addr())
	resp := tc.do(t, request{Op: "query", Q: `EMP`})
	if resp.OK || resp.Error == nil || resp.Error.Code != int(hrdmerr.CodeDeadline) {
		t.Fatalf("held query = %+v, want deadline (code %d)", resp, hrdmerr.CodeDeadline)
	}
	for i := 0; i < 3; i++ {
		if resp := tc.do(t, request{Op: "query", Q: `SELECT WHEN NAME = 'John' FROM EMP`}); !resp.OK || resp.Rows != 1 {
			t.Fatalf("query %d after the expiry = %+v", i, resp)
		}
	}
}

// TestQueryCtxDoneOnExpiry: an armed op's Done channel closes when its
// deadline passes, and Err then reports the deadline, which the engine
// turns into the typed deadline error. Pollers on other goroutines, as
// parallel workers poll, see Err set only with Done closed.
func TestQueryCtxDoneOnExpiry(t *testing.T) {
	c := newQueryCtx(context.Background())
	defer c.close()
	c.arm(time.Millisecond)
	var pollers sync.WaitGroup
	for range 4 {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for c.Err() == nil {
			}
			select {
			case <-c.Done():
			default:
				t.Error("Err set while Done is open")
			}
		}()
	}
	pollers.Wait()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done still open 5s after a 1ms deadline")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) || hrdmerr.CodeOf(hrdmerr.FromContext(err)) != hrdmerr.CodeDeadline {
		t.Fatalf("Err() = %v, want context.DeadlineExceeded", err)
	}
	c.disarm()
	c.arm(time.Hour)
	if err := c.Err(); err != nil {
		t.Fatalf("next op: Err() = %v, want a live context", err)
	}
	select {
	case <-c.Done():
		t.Fatal("next op: Done already closed")
	default:
	}
}

// TestQueryCtxLateFiring: a timer firing left over from an op that is
// over — here a 1µs deadline disarmed at once, its firing also forced by
// hand — does not cancel the next op, whose deadline is an hour away.
func TestQueryCtxLateFiring(t *testing.T) {
	c := newQueryCtx(context.Background())
	defer c.close()
	c.arm(time.Microsecond)
	c.disarm()
	c.arm(time.Hour)
	c.fire()
	time.Sleep(5 * time.Millisecond)
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v, want the hour-long op live", err)
	}
	select {
	case <-c.Done():
		t.Fatal("Done closed for the hour-long op")
	default:
	}
}

// TestQueryDeadlineDrainCanceled: with a query deadline set, a forced
// drain still aborts the in-flight op with the typed canceled error.
func TestQueryDeadlineDrainCanceled(t *testing.T) {
	srv := startServer(t, Config{QueryDeadline: time.Hour, DrainTimeout: 50 * time.Millisecond})
	entered := make(chan struct{}, 1)
	codes := make(chan hrdmerr.Code, 1)
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		<-ctx.Done()
		codes <- hrdmerr.CodeOf(hrdmerr.FromContext(ctx.Err()))
	}
	tc := dialT(t, srv.Addr())
	tc.send(t, request{Op: "query", Q: `EMP`})
	<-entered
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-codes; code != hrdmerr.CodeCanceled {
		t.Fatalf("drained op saw %s, want canceled", code)
	}
}

// TestQueryCtxCloseReleases: closing a connection's context stops its
// timer and removes its hook from the base context, so a later cancel
// of the base reaches nothing.
func TestQueryCtxCloseReleases(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := newQueryCtx(base)
	c.arm(time.Hour)
	c.disarm()
	c.close()
	if c.timer.Stop() {
		t.Error("timer still pending after close")
	}
	if c.stopBase() {
		t.Error("hook on the base context still registered after close")
	}
	cancel()
	time.Sleep(5 * time.Millisecond)
	if err := c.Err(); err != nil {
		t.Errorf("Err() = %v after the base was canceled; want the closed context untouched", err)
	}
}

// TestGracefulDrain: Shutdown lets an in-flight query finish and its
// client read the response, wakes idle connections, and stops
// accepting — all within the grace.
func TestGracefulDrain(t *testing.T) {
	srv := startServer(t, Config{DrainTimeout: 5 * time.Second})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	idle := dialT(t, srv.Addr())
	if resp := idle.do(t, request{Op: "ping"}); !resp.OK {
		t.Fatalf("idle ping = %+v", resp)
	}
	busy := dialT(t, srv.Addr())
	busy.send(t, request{Op: "query", Q: `SELECT WHEN NAME = 'John' FROM EMP`})
	<-entered

	done := make(chan error, 1)
	go func() {
		done <- srv.Shutdown(context.Background())
	}()
	// Let the drain reach its waiting phase, then release the in-flight
	// query: the client must still receive its full response.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if resp := busy.recv(t); !resp.OK || resp.Rows != 1 {
		t.Fatalf("in-flight query during drain = %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// New connections are refused after drain.
	if c, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("post-drain dial succeeded")
	}
}

// TestDrainDeadlineForcesCancel: when in-flight work outlives the
// drain grace, Shutdown cancels it via the base context (queries see a
// typed abort) and still completes instead of hanging.
func TestDrainDeadlineForcesCancel(t *testing.T) {
	srv := startServer(t, Config{DrainTimeout: 100 * time.Millisecond})
	entered := make(chan struct{}, 1)
	var sawCancel atomic.Bool
	srv.testHold = func(ctx context.Context, op string) {
		entered <- struct{}{}
		<-ctx.Done() // only a forced drain (or deadline) releases this
		sawCancel.Store(true)
	}
	stuck := dialT(t, srv.Addr())
	stuck.send(t, request{Op: "query", Q: `EMP`})
	<-entered

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	if !sawCancel.Load() {
		t.Fatal("in-flight query was never canceled")
	}
}

// query runs one query op and returns its row count; unlike do it
// reports failures as errors, so client goroutines can use it.
func (tc *tclient) query(q string) (int, error) {
	buf, err := json.Marshal(request{Op: "query", Q: q})
	if err != nil {
		return 0, err
	}
	if _, err := tc.c.Write(append(buf, '\n')); err != nil {
		return 0, err
	}
	tc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := tc.r.ReadString('\n')
	if err != nil {
		return 0, err
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("query %s failed: %+v", q, resp.Error)
	}
	return resp.Rows, nil
}

// tornCut is the torn-read detector. Every write group stages the same
// key into A and into B, so at any consistent cut the two relations
// hold identical keys and both differences are empty; a tuple in
// either one is a cut that fell between the two halves of a group.
func (tc *tclient) tornCut() (bool, error) {
	for _, q := range []string{`A MINUS B`, `B MINUS A`} {
		rows, err := tc.query(q)
		if err != nil || rows != 0 {
			return rows != 0, err
		}
	}
	return false, nil
}

// TestDrainWritesOneSnapshot: draining a durable server that committed
// a group — Shutdown's checkpoint, then the DB's Close, as hrdm-server
// does on SIGTERM — writes the snapshot once, not once per call.
func TestDrainWritesOneSnapshot(t *testing.T) {
	st, _, err := storage.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MergeStore(workload.Demo()); err != nil {
		t.Fatal(err)
	}
	db := engine.OpenDB(st)
	srv := New(db, Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	tc := dialT(t, srv.Addr())
	for _, req := range []request{
		{Op: "begin_group"},
		{Op: "stage", Rel: "EMP", Tuple: `tuple {[20,29]}; NAME = "Zoe" @ {[20,29]}`},
		{Op: "commit"},
	} {
		if resp := tc.do(t, req); !resp.OK {
			t.Fatalf("%s = %+v", req.Op, resp)
		}
	}
	written := obs.Default.Counter("storage.checkpoint.count")
	before := written.Load()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := written.Load() - before; got != 1 {
		t.Fatalf("drain wrote %d snapshots, want 1", got)
	}
}

// pairedStore is the detector's fixture: two empty relations A and B
// keyed by ID, served on a fresh server.
func pairedStore(t *testing.T, cfg Config) (*engine.DB, *Server) {
	t.Helper()
	full := lifespan.Interval(0, 999)
	st := storage.NewStore()
	for _, name := range []string{"A", "B"} {
		st.Put(core.NewRelation(schema.MustNew(name, []string{"ID"},
			schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		)))
	}
	db := engine.OpenDB(st)
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return db, srv
}

// commitID commits one write group staging ID = id into each of rels.
func commitID(sess *engine.Session, id int, rels ...string) error {
	if err := sess.BeginGroup(); err != nil {
		return err
	}
	spec := fmt.Sprintf(`tuple {[0,9]}; ID = %d @ {[0,9]}`, id)
	for _, rel := range rels {
		if _, err := sess.Stage(rel, spec); err != nil {
			return err
		}
	}
	_, err := sess.Commit(context.Background())
	return err
}

// TestConcurrentClientsConsistency is the acceptance race test: 64
// client connections run the torn-cut detector while a writer commits
// cross-relation write groups through the session API. The writer
// starts once every client is connected and probing, and the clients
// keep probing until it has finished, so the two overlap on any core
// count. No client may ever see a group half-applied. Each connection's
// queries run under its query deadline, as a served query does by
// default. Run under -race in CI.
func TestConcurrentClientsConsistency(t *testing.T) {
	const (
		clients = 64
		groups  = 600
	)
	db, srv := pairedStore(t, Config{MaxConns: clients + 8, MaxInflight: clients + 8, QueryDeadline: time.Minute})

	var ready sync.WaitGroup // every client has completed its first probe
	ready.Add(clients)
	var written atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		defer written.Store(true)
		ready.Wait()
		sess := db.NewSession()
		for i := 0; i < groups; i++ {
			if err := commitID(sess, i, "A", "B"); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	var torn, probes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			signal := func() {
				if first {
					first = false
					ready.Done()
				}
			}
			defer signal() // a failed client must not strand the writer
			c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			tc := &tclient{c: c, r: bufio.NewReaderSize(c, 1<<20)}
			for !written.Load() {
				isTorn, err := tc.tornCut()
				if err != nil {
					t.Error(err)
					return
				}
				if isTorn {
					torn.Add(1)
				}
				probes.Add(1)
				signal()
			}
		}()
	}
	wg.Wait()
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d probes saw A and B differ at a pinned cut — snapshot isolation violated", n, probes.Load())
	}
	t.Logf("%d probes raced %d groups", probes.Load(), groups)
}

// TestTornCutDetectorFires is the detector's negative control: the
// same logical write split into two groups — A first, B second — is
// exactly the half-visible state a torn read would show, and the
// detector must report it; once the second half lands it must go
// quiet again.
func TestTornCutDetectorFires(t *testing.T) {
	db, srv := pairedStore(t, Config{})
	sess := db.NewSession()
	tc := dialT(t, srv.Addr())
	check := func(when string, want bool) {
		t.Helper()
		got, err := tc.tornCut()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: detector reports torn=%v, want %v", when, got, want)
		}
	}
	if err := commitID(sess, 1, "A", "B"); err != nil {
		t.Fatal(err)
	}
	check("after a whole group", false)
	if err := commitID(sess, 2, "A"); err != nil {
		t.Fatal(err)
	}
	check("between the halves of a split commit (A ahead)", true)
	if err := commitID(sess, 2, "B"); err != nil {
		t.Fatal(err)
	}
	check("after the second half", false)
	if err := commitID(sess, 3, "B"); err != nil {
		t.Fatal(err)
	}
	check("between the halves of a split commit (B ahead)", true)
}
