package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/hrdmerr"
	"repro/internal/obs"
)

// Server metrics: connection lifecycle and the two admission-control
// rejection paths. Query execution itself is already counted by the
// engine (engine.queries etc.); these cover what only the serving layer
// sees — how many clients arrived, how many were turned away, and why.
var (
	mConns         = obs.Default.Gauge("server.connections")
	mConnsTotal    = obs.Default.Counter("server.conns_total")
	mConnsRejected = obs.Default.Counter("server.conns_rejected")
	mRequests      = obs.Default.Counter("server.requests")
	mOverloaded    = obs.Default.Counter("server.overload_rejected")
	mDrainedClean  = obs.Default.Counter("server.drains_clean")
	mDrainedForced = obs.Default.Counter("server.drains_forced")
	// mRenderNs times a query reply from the start of result rendering
	// to the end of its reply line — rendering, escaping and envelope in
	// one pass, the serving cost that grows with the result, before the
	// socket write.
	mRenderNs = obs.Default.Histogram("server.render_ns")
)

// maxRequestLine bounds one request line. A connection's read buffer
// starts small and grows up to it only for long requests.
const maxRequestLine = 1 << 20

// Config bounds the server. Zero values mean: listen on an ephemeral
// port, defaults for the limits, no per-query deadline, a 5s drain
// grace.
type Config struct {
	Addr          string        // listen address, e.g. ":7373"; "" = "127.0.0.1:0"
	MaxConns      int           // concurrent connections admitted (default 64)
	MaxInflight   int           // concurrently executing queries (default 16)
	QueryDeadline time.Duration // per-query deadline; 0 = none
	DrainTimeout  time.Duration // grace for in-flight work on Shutdown (default 5s)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server accepts connections on one listener and serves the protocol
// over a shared engine.DB. Lifecycle: New → Start → Shutdown. Admission
// control is load-shedding, not queuing: a connection past MaxConns and
// a query past MaxInflight are rejected immediately with a typed
// overloaded error, so a saturated server answers fast instead of
// accumulating unbounded work it will time out on anyway.
type Server struct {
	cfg Config
	db  *engine.DB

	ln       net.Listener
	inflight chan struct{} // query-execution slots

	baseCtx    context.Context // canceled when a drain turns forceful
	cancelBase context.CancelFunc

	draining atomic.Bool
	acceptWG sync.WaitGroup // the accept loop
	connWG   sync.WaitGroup // one per live connection

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// testHold, when set (tests only), runs inside query execution while
	// the inflight slot is held — the seam admission and drain tests use
	// to keep a query deterministically in flight. It receives the
	// query's context so a forced drain or deadline can release it.
	testHold func(ctx context.Context, op string)
}

// New configures a server over db; call Start to begin serving.
func New(db *engine.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		db:         db,
		inflight:   make(chan struct{}, cfg.MaxInflight),
		baseCtx:    ctx,
		cancelBase: cancel,
		conns:      make(map[net.Conn]struct{}),
	}
}

// Start binds the listener and launches the accept loop. The bound
// address (useful with ":0") is available from Addr afterwards.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the listener's bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Listener closed: either Shutdown or a fatal accept error;
			// both end the loop. (net.ErrClosed is the drain path.)
			return
		}
		mConnsTotal.Inc()
		if s.draining.Load() {
			s.rejectConn(c, hrdmerr.New(hrdmerr.CodeUnavailable, "server is draining"))
			continue
		}
		if !s.tryRegister(c) {
			mConnsRejected.Inc()
			s.rejectConn(c, hrdmerr.New(hrdmerr.CodeOverloaded,
				"connection limit reached (%d)", s.cfg.MaxConns))
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// tryRegister admits c under the connection limit; both the check and
// the insert happen under one lock so the limit cannot be oversubscribed.
func (s *Server) tryRegister(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[c] = struct{}{}
	mConns.Set(int64(len(s.conns)))
	return true
}

func (s *Server) unregister(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	mConns.Set(int64(len(s.conns)))
	s.mu.Unlock()
}

// rejectConn answers a connection the server will not serve with one
// typed error line, then closes it: the client learns why instead of
// seeing a bare RST.
func (s *Server) rejectConn(c net.Conn, err error) {
	c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	newReplyWriter().write(c, errResponse(err))
	c.Close()
}

// serveConn runs one connection's request/response loop over its own
// engine.Session until the client disconnects or a drain ends the
// conversation after the current request.
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.unregister(c)
	defer c.Close()
	sess := s.db.NewSession()
	defer sess.Abort() // discard a stray staged group on disconnect
	var qc *queryCtx   // nil: no query deadline, ops run under baseCtx
	if s.cfg.QueryDeadline > 0 {
		qc = newQueryCtx(s.baseCtx)
		defer qc.close()
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(nil, maxRequestLine)
	w := newReplyWriter()
	var dec decoder
	for !s.draining.Load() && sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		mRequests.Inc()
		var req request
		var resp response
		if err := dec.decode(line, &req); err != nil {
			resp = errResponse(err)
		} else {
			resp = s.handleIn(qc, sess, req)
		}
		if err := w.write(c, resp); err != nil {
			return
		}
	}
	// Scanner errors (including the read deadline a drain sets to wake
	// idle readers) and client EOF both land here; the deferred close
	// finishes the conversation. A line past the limit cannot be
	// answered in place, so it gets one typed reply; the write side is
	// shut first, so the reply is sent before the close resets the
	// connection over the request bytes left unread.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		mRequests.Inc()
		err := hrdmerr.New(hrdmerr.CodeBadRequest, "request line exceeds %d bytes", maxRequestLine)
		if w.write(c, errResponse(err)) == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
	}
}

// handle executes one request outside a connection, with no deadline.
func (s *Server) handle(sess *engine.Session, req request) response {
	return s.handleIn(nil, sess, req)
}

// handleIn executes one request against the connection's session.
// Engine-bound ops (query, explain, commit) pass admission control
// first: a free inflight slot or an immediate typed overloaded error.
func (s *Server) handleIn(qc *queryCtx, sess *engine.Session, req request) response {
	switch req.Op {
	case "ping":
		return response{OK: true, Result: "pong"}
	case "begin_group":
		if err := sess.BeginGroup(); err != nil {
			return errResponse(err)
		}
		return response{OK: true}
	case "stage":
		n, err := sess.Stage(req.Rel, req.Tuple)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Staged: n}
	case "abort":
		sess.Abort()
		return response{OK: true}
	case "metrics":
		var b strings.Builder
		if err := obs.Default.Snapshot().WriteJSON(&b); err != nil {
			return errResponse(hrdmerr.Wrap(hrdmerr.CodeInternal, err))
		}
		return response{OK: true, Metrics: json.RawMessage(b.String())}
	case "query", "explain", "commit":
		return s.handleEngine(qc, sess, req)
	default:
		return errResponse(hrdmerr.New(hrdmerr.CodeBadRequest, "unknown op %q", req.Op))
	}
}

// handleEngine runs the ops that do real engine work under the
// inflight semaphore and, armed in qc, the query deadline.
func (s *Server) handleEngine(qc *queryCtx, sess *engine.Session, req request) response {
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		mOverloaded.Inc()
		return errResponse(hrdmerr.New(hrdmerr.CodeOverloaded,
			"server at capacity (%d queries in flight)", s.cfg.MaxInflight))
	}
	ctx := s.baseCtx
	if qc != nil {
		qc.arm(s.cfg.QueryDeadline)
		defer qc.disarm()
		ctx = qc
	}
	if hold := s.testHold; hold != nil {
		hold(ctx, req.Op)
	}
	switch req.Op {
	case "query":
		res, err := sess.Query(ctx, req.Q)
		if err != nil {
			return errResponse(err)
		}
		rendering := time.Now()
		rows := 0
		switch {
		case res.Relation != nil:
			rows = res.Relation.Cardinality()
		case res.Snapshot != nil:
			rows = res.Snapshot.Cardinality()
		}
		return response{OK: true, Rows: rows, query: &res, rendering: rendering}
	case "explain":
		var out string
		var err error
		if req.Analyze {
			out, err = sess.ExplainAnalyze(ctx, req.Q)
		} else {
			out, err = sess.Explain(req.Q)
		}
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Text: out}
	default: // commit
		n, err := sess.Commit(ctx)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Committed: n}
	}
}

// queryCtx is one connection's query context, armed for each engine op
// with no allocation. Its timer is reset only when not pending or due too
// late. A firing expires only an op whose own deadline has passed and
// re-arms otherwise, so a firing left over from one op never cancels the
// next. An arm after an expiry is live again; a drain's cancel is final.
type queryCtx struct {
	context.Context             // the base, for Value
	stopBase        func() bool // unregisters cancel from the base
	mu              sync.Mutex
	timer           *time.Timer
	due, deadline   time.Time // zero: the timer is not pending; no op is armed
	done            chan struct{}
	err             error // nil, context.DeadlineExceeded or the base's error
}

func newQueryCtx(base context.Context) *queryCtx {
	c := &queryCtx{Context: base, done: make(chan struct{})}
	c.timer = time.AfterFunc(time.Hour, c.fire)
	c.timer.Stop() // until the first arm
	c.stopBase = context.AfterFunc(base, c.cancel)
	return c
}

func (c *queryCtx) arm(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil && c.Context.Err() == nil { // expired, not drained
		c.err, c.done = nil, make(chan struct{})
	}
	if c.deadline = time.Now().Add(d); c.due.IsZero() || c.deadline.Before(c.due) {
		c.due = c.deadline
		c.timer.Reset(d)
	}
}

func (c *queryCtx) disarm() { c.mu.Lock(); c.deadline = time.Time{}; c.mu.Unlock() }

func (c *queryCtx) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.due = time.Time{}
	if left := time.Until(c.deadline); c.deadline.IsZero() || c.err != nil {
		return
	} else if left > 0 {
		c.due = c.deadline
		c.timer.Reset(left)
		return
	}
	c.err = context.DeadlineExceeded
	close(c.done)
}

func (c *queryCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		close(c.done)
	}
	c.err = c.Context.Err()
}

// close releases the timer and the hook on the base.
func (c *queryCtx) close() {
	c.stopBase()
	c.timer.Stop()
}

func (c *queryCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline, !c.deadline.IsZero()
}

func (c *queryCtx) Done() <-chan struct{} { c.mu.Lock(); defer c.mu.Unlock(); return c.done }
func (c *queryCtx) Err() error            { c.mu.Lock(); defer c.mu.Unlock(); return c.err }

// replyWriter writes one connection's reply lines from one buffer it
// reuses across replies. appendResponse builds each line there, a
// query's result rendered and JSON-escaped in the same pass, so a reply
// is held once and its bytes are scanned once before the socket write.
// HTML escaping is off: renderings are full of '<' and '>', which
// json.Marshal would send as six-byte \u003c escapes; the line is valid
// JSON either way and decodes to the same strings.
type replyWriter struct{ buf []byte }

func newReplyWriter() *replyWriter { return &replyWriter{} }

// write sends resp as one line. A client that stopped reading gets a
// bounded write deadline, so a drain is never hostage to a dead peer's
// TCP window.
func (w *replyWriter) write(c net.Conn, resp response) error {
	var err error
	if w.buf, err = appendResponse(w.buf[:0], resp); err != nil {
		return err
	}
	if !resp.rendering.IsZero() {
		mRenderNs.ObserveSince(resp.rendering)
	}
	c.SetWriteDeadline(time.Now().Add(30 * time.Second))
	_, err = c.Write(w.buf)
	return err
}

// Shutdown drains the server: stop accepting, wake idle connections,
// let in-flight requests finish within the drain grace (Config's
// DrainTimeout, tightened by ctx if it expires sooner), then — if work
// is still running — cancel it via the base context, which aborts
// executing queries with a typed error within one tuple batch.
// Finally the durable store is checkpointed, so a SIGTERM'd server
// restarts with an empty replay. Shutdown is idempotent; concurrent
// calls after the first return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	// Wake every connection blocked in a read: the handler loop sees
	// draining and exits after at most one more request/response.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		mDrainedClean.Inc()
	case <-drainCtx.Done():
		// Grace expired: abort in-flight queries and hard-close what's
		// left. Executing queries return ErrCanceled to their clients.
		mDrainedForced.Inc()
		s.cancelBase()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cancelBase()
	if err := s.db.Checkpoint(); err != nil && !errors.Is(err, hrdmerr.ErrState) {
		return fmt.Errorf("server: drain checkpoint: %w", err)
	}
	return nil
}
