package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"repro/internal/hql"
	"repro/internal/storage"
)

// reply is one response line of the server's protocol (docs/SERVER.md).
type reply struct {
	OK      bool            `json:"ok"`
	Result  string          `json:"result"`
	Rows    int             `json:"rows"`
	Metrics json.RawMessage `json:"metrics"`
	Error   *struct {
		Code  int    `json:"code"`
		Class string `json:"class"`
		Msg   string `json:"msg"`
	} `json:"error"`
}

// client is one connection: one session server-side, strictly one
// reply per request.
type client struct {
	conn      net.Conn
	r         *bufio.Reader
	respBytes int64 // reply bytes read so far
	replies   int64
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) send(line []byte) error {
	_, err := c.conn.Write(line)
	return err
}

// recvLine reads one reply line; it is valid until the next read.
func (c *client) recvLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A scan_join reply outgrows the buffer; finish it the slow way.
		head := append([]byte(nil), line...)
		var rest []byte
		rest, err = c.r.ReadBytes('\n')
		line = append(head, rest...)
	}
	c.respBytes += int64(len(line))
	c.replies++
	return line, err
}

func decode(line []byte) (reply, error) {
	var r reply
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("bad reply %.80q: %v", line, err)
	}
	return r, nil
}

// roundTrip sends one request and returns the undecoded reply, so a
// caller timing the server does not time the client's JSON decoder.
func (c *client) roundTrip(line []byte) ([]byte, error) {
	if err := c.send(line); err != nil {
		return nil, err
	}
	return c.recvLine()
}

// do is one round trip, decoded.
func (c *client) do(line []byte) (reply, error) {
	raw, err := c.roundTrip(line)
	if err != nil {
		return reply{}, err
	}
	return decode(raw)
}

func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// verdict classifies a reply against what the request expects.
type verdict uint8

const (
	good    verdict = iota
	refused         // ok:false — an error or an overloaded refusal
	wrong           // ok:true with the wrong rows or rendering
)

func judge(r reply, want expect) verdict {
	switch {
	case !r.OK:
		return refused
	case want.rows >= 0 && r.Rows != want.rows:
		return wrong
	case want.hashed && fnv1a(r.Result) != want.hash:
		return wrong
	}
	return good
}

// computeOracle fills in the expected answer of every sampled request
// with the paper's algebra as hql.EvalNaive executes it on the same
// data, on as many goroutines as the load generator may use. It
// returns the time spent inside EvalNaive, summed over the goroutines.
func computeOracle(st *storage.Store, reqs []*request) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, generators)
	spent := make([]time.Duration, generators)
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(reqs); i += generators {
				e, err := hql.Parse(reqs[i].query)
				if err == nil {
					var res hql.Result
					t0 := time.Now()
					res, err = hql.EvalNaive(e, st)
					spent[g] += time.Since(t0)
					if err == nil {
						reqs[i].want = expect{rows: resultRows(res), hash: fnv1a(res.String()), hashed: true}
						continue
					}
				}
				errs[g] = fmt.Errorf("oracle %q: %w", reqs[i].query, err)
				return
			}
		}()
	}
	wg.Wait()
	var total time.Duration
	for g, err := range errs {
		if err != nil {
			return 0, err
		}
		total += spent[g]
	}
	return total, nil
}

// resultRows counts rows as the server's `rows` field does.
func resultRows(res hql.Result) int {
	switch {
	case res.Relation != nil:
		return res.Relation.Cardinality()
	case res.Snapshot != nil:
		return res.Snapshot.Cardinality()
	}
	return 0
}
