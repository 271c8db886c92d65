package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// generators is the number of connections and of load-generating
// goroutines: one per CPU of the 2-CPU host this benchmark is sized
// for. More would measure the scheduler, not the server.
const generators = 2

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// lateLimit is how late a paced group may start before it counts as
// failed: a second behind its schedule, the writer is not keeping the
// rate. (At this commit one commit in several hundred takes 100 ms —
// they show in commit_lat_p95_us and loadgen.late_us_p99 — so the 100 ms
// the issue named would fail runs of unchanged code.)
const lateLimit = time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	sizes    sizes
	dirs     dirs
	bin      string // the built hrdm-server
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup lets the plan cache fill and the lazy attribute indexes build.
func (c config) warmup() time.Duration { return c.window() / 5 }

// environment is one completed set-up: generated data on disk, oracle
// answers in the plan, a server that has answered its first ping.
type environment struct {
	plan      *plan
	dir       string   // this set-up's scratch directory under out/
	storeArg  []string // -db FILE or -open DIR
	srv       *child
	took      time.Duration // data + store + oracle + exec→pong
	naive     time.Duration // spent inside hql.EvalNaive by the oracle
	snapBytes int64         // a durable store's checkpoint as set-up wrote it
}

func (e *environment) storeDir() string { return filepath.Join(e.dir, "db") }

func setUp(cfg config) (env *environment, err error) {
	t0 := time.Now()
	env = &environment{}
	if env.plan, err = newPlan(cfg.workload, cfg.seed, cfg.sizes); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dirs.out, 0o777); err != nil {
		return nil, err
	}
	if env.dir, err = os.MkdirTemp(cfg.dirs.out, "run-"+cfg.workload+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(env.dir)
		}
	}()
	if env.plan.durable {
		if err := saveDurable(env.plan.store, env.storeDir()); err != nil {
			return nil, err
		}
		env.storeArg = []string{"-open", env.storeDir()}
		env.snapBytes = fileSize(filepath.Join(env.storeDir(), "store.hrdm"))
	} else {
		file := filepath.Join(env.dir, "store.hrdm")
		if err := env.plan.store.Save(file); err != nil {
			return nil, err
		}
		env.storeArg = []string{"-db", file}
	}
	if env.naive, err = computeOracle(env.plan.store, env.plan.sampled); err != nil {
		return nil, err
	}
	if env.srv, err = startServer(cfg.bin, env.storeArg...); err != nil {
		return nil, err
	}
	env.took = time.Since(t0)
	return env, nil
}

// saveDurable writes st's relations as the checkpoint of a fresh
// durable store directory.
func saveDurable(st *storage.Store, dir string) error {
	d, _, err := storage.OpenDurable(dir)
	if err != nil {
		return err
	}
	for _, name := range st.Names() {
		r, _ := st.Get(name)
		d.Put(r)
	}
	return d.Close() // checkpoints
}

func (e *environment) tearDown() error {
	var err error
	if e.srv != nil {
		err = e.srv.stop()
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// recorder is what one generator goroutine saw in the timed window.
type recorder struct {
	attempted, failed int
	lat               []int64 // round trip of each good query, ns
	problems          []string
	err               error // a broken connection ends the generator
}

func (rec *recorder) note(format string, args ...any) {
	rec.failed++
	if len(rec.problems) < 5 {
		rec.problems = append(rec.problems, fmt.Sprintf(format, args...))
	}
}

// closedLoop sends the next request only when the previous reply has
// arrived, which is the protocol's client model: one reply per request
// per session.
func closedLoop(cl *client, next func(int) *request, frontier *atomic.Int64, open, shut time.Time) *recorder {
	rec := &recorder{}
	for {
		req := next(int(frontier.Load()))
		t0 := time.Now()
		if !t0.Before(shut) {
			return rec
		}
		raw, err := cl.roundTrip(req.line)
		t1 := time.Now()
		var r reply
		if err == nil {
			r, err = decode(raw)
		}
		if err != nil {
			rec.err = err
			return rec
		}
		if t0.Before(open) {
			continue // warm-up
		}
		rec.attempted++
		switch judge(r, req.want) {
		case good:
			rec.lat = append(rec.lat, int64(t1.Sub(t0)))
		case refused:
			rec.note("%s: refused: %+v", req.query, *r.Error)
		case wrong:
			rec.note("%s: wrong answer: %d rows, hash %x; want %d rows, hash %x",
				req.query, r.Rows, fnv1a(r.Result), req.want.rows, req.want.hash)
		}
	}
}

// writerLog is the paced writer's record.
type writerLog struct {
	recorder
	commit    []int64 // due time → commit ack of each group in the window, ns
	late      []int64 // how late each group started, ns
	acked     int     // groups acknowledged since the writer started, warm-up included
	userBytes int64   // tuple-spec bytes of the acked groups
}

// pacedWriter is the open-loop side of durable_mixed: group g is due at
// start + g/groupsPerSec whatever happened to group g-1, so a stall
// delays the groups behind it and their latency, taken from the due
// time, says so. Each group is 18 round trips (begin, 16 stages, commit)
// and one fsync, followed by a read-your-write lookup of its first key.
func pacedWriter(cl *client, frontier *atomic.Int64, start, open, shut time.Time) *writerLog {
	w := &writerLog{}
	for g := 0; ; g++ {
		due := start.Add(time.Duration(g) * time.Second / groupsPerSec)
		if !due.Before(shut) {
			return w
		}
		lines, userBytes := groupLines(g)
		check := queryRequest(fmt.Sprintf(`SELECT WHEN K = '%s' FROM A`, groupKey(g, 0)), 1)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		frontier.Store(int64(g))
		timed := !due.Before(open)
		bad := 0
		for _, line := range lines {
			r, err := cl.do(line)
			if err != nil {
				w.err = err
				return w
			}
			if !r.OK {
				bad++
				if timed {
					w.note("group %d: %s refused: %+v", g, line, *r.Error)
				}
			}
		}
		ack := time.Now()
		if bad == 0 {
			w.acked = g + 1
			w.userBytes += int64(userBytes)
		}
		r, err := cl.do(check.line)
		if err != nil {
			w.err = err
			return w
		}
		if !timed {
			continue
		}
		w.attempted += len(lines) + 1
		if judge(r, check.want) != good {
			w.note("group %d: read-your-write saw %d rows, want 1", g, r.Rows)
		}
		if late > lateLimit {
			w.note("group %d started %v late", g, late)
		}
		if bad == 0 {
			w.commit = append(w.commit, int64(ack.Sub(due)))
		}
		w.late = append(w.late, int64(late))
	}
}

// measurement is one served window and, on durable_mixed, the crash
// that follows it.
type measurement struct {
	window    time.Duration
	readers   []*recorder
	writer    *writerLog // nil on read-only workloads
	before    procSample // server, as the window opens
	after     procSample // server, as it shuts
	selfCPU   float64    // load generator CPU seconds over the window
	respBytes int64      // reply bytes and replies on the generators' connections, warm-up included
	replies   int64
	regBefore obs.Snapshot // server registry around the window (traced runs only)
	regAfter  obs.Snapshot
	walBytes  int64 // WAL growth from the writer's first group to its last ack
	crash     *crashReport
}

func fetchRegistry(cl *client) (obs.Snapshot, error) {
	var snap obs.Snapshot
	r, err := cl.do(opLine(map[string]string{"op": "metrics"}))
	if err != nil {
		return snap, err
	}
	if !r.OK {
		return snap, fmt.Errorf("metrics refused: %+v", *r.Error)
	}
	return snap, json.Unmarshal(r.Metrics, &snap)
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// measure warms the server up, then drives it for the timed window.
// With registry set it also fetches the server's own metrics at both
// edges of the window, over a control connection that is otherwise idle.
func measure(cfg config, env *environment, registry bool) (*measurement, error) {
	m := &measurement{window: cfg.window()}
	control, err := dial(env.srv.addr)
	if err != nil {
		return nil, err
	}
	defer control.close()

	// Negative control: a deliberately wrong expected hash must be
	// reported, or a clean run proves nothing.
	probe := *env.plan.sampled[0]
	probe.want.hash++
	r, err := control.do(probe.line)
	if err != nil {
		return nil, err
	}
	if judge(r, probe.want) != wrong || judge(r, env.plan.sampled[0].want) != good {
		return nil, fmt.Errorf("negative control: a wrong expected hash for %q was not reported, or the right one was", probe.query)
	}

	conns := make([]*client, generators)
	for i := range conns {
		if conns[i], err = dial(env.srv.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	walPath := filepath.Join(env.storeDir(), "wal.log")
	walBefore := fileSize(walPath)

	start := time.Now().Add(20 * time.Millisecond)
	open := start.Add(cfg.warmup())
	shut := open.Add(cfg.window())
	var frontier atomic.Int64
	var wg sync.WaitGroup
	m.readers = make([]*recorder, env.plan.readers)
	for i := range m.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := env.plan.reader(i)
			time.Sleep(time.Until(start))
			m.readers[i] = closedLoop(conns[i], next, &frontier, open, shut)
		}()
	}
	if env.plan.durable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.writer = pacedWriter(conns[generators-1], &frontier, start, open, shut)
		}()
	}

	// The control side: /proc, and on traced runs the server's registry,
	// as the window opens and as it shuts.
	edge := func(at time.Time, ps *procSample, reg *obs.Snapshot) error {
		time.Sleep(time.Until(at))
		var err error
		if *ps, err = sampleProc(env.srv.pid()); err == nil && registry {
			*reg, err = fetchRegistry(control)
		}
		return err
	}
	edgeErr := edge(open, &m.before, &m.regBefore)
	cpu0 := selfCPUSeconds()
	if edgeErr == nil {
		edgeErr = edge(shut, &m.after, &m.regAfter)
	}
	m.selfCPU = selfCPUSeconds() - cpu0
	wg.Wait()
	if edgeErr != nil {
		return nil, edgeErr
	}
	for _, rec := range m.readers {
		if rec.err != nil {
			return nil, fmt.Errorf("reader connection: %w", rec.err)
		}
	}
	for _, c := range conns {
		m.respBytes += c.respBytes
		m.replies += c.replies
	}
	if m.writer != nil {
		if m.writer.err != nil {
			return nil, fmt.Errorf("writer connection: %w", m.writer.err)
		}
		m.walBytes = fileSize(walPath) - walBefore
		if m.crash, err = crashAndRecover(cfg, env, conns[generators-1], m.writer.acked); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported number; N is the sample count behind a timing.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// tally sums what the generators saw.
func (m *measurement) tally() (attempted, failed int, problems []string) {
	recs := append([]*recorder(nil), m.readers...)
	if m.writer != nil {
		recs = append(recs, &m.writer.recorder)
	}
	for _, rec := range recs {
		attempted += rec.attempted
		failed += rec.failed
		problems = append(problems, rec.problems...)
	}
	return
}

// queryLatencies is every good query's round trip in the window, sorted.
func (m *measurement) queryLatencies() []int64 {
	var lat []int64
	for _, rec := range m.readers {
		lat = append(lat, rec.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// endToEnd turns a measurement into the end-to-end metrics, each over
// the whole window. Medians over parts of the window were tried against
// the host's slow spells — one-second slices and thirds — and were no
// steadier on the fast workloads and noisier on scan_join, where a
// second holds some 60 operations of very different cost.
func (m *measurement) endToEnd(out map[string]metric) {
	attempted, failed, _ := m.tally()
	good := attempted - failed
	out["throughput_ops_s"] = metric{float64(good) / m.window.Seconds(), "1/s", good}
	lat := m.queryLatencies()
	out["query_lat_p50_us"] = metric{percentile(lat, 0.50) / 1e3, "us", len(lat)}
	out["query_lat_p95_us"] = metric{percentile(lat, 0.95) / 1e3, "us", len(lat)}
	cpu := (m.after.user - m.before.user) + (m.after.sys - m.before.sys)
	out["server_cpu_ms_per_op"] = metric{cpu * 1e3 / float64(max(good, 1)), "ms", good}
	out["server_peak_rss_mb"] = metric{m.after.peakRSSMB, "MB", 0}
}
