package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// span is one timed call made from the benchmark's own files into a
// layer. Parent is an index into the trace (-1 for a request's root);
// spans of one request share RequestID. Times are ns after the pass began.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
}

// tracer keeps spans in memory; they are written out when the pass ends.
// A nil tracer records nothing, which is the untraced side of
// trace.overhead_frac.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, RequestID: request, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes is each span's duration minus the time its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// durations collects the durations of the spans called name, sorted.
func durations(spans []span, name string) []int64 {
	var ds []int64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func sum(vs []int64) (total int64) {
	for _, v := range vs {
		total += v
	}
	return total
}

// tracedPass is the in-process side of a traced run: the same data
// opened with engine.OpenDB, an in-process server for the socket leg,
// and a fixed number of requests from the start of the workload's
// sequence, so its counts repeat exactly.
type tracedPass struct {
	st   *storage.Store
	sess *engine.Session
	cl   *client
	tr   *tracer
	reqs []*request

	mismatches int   // served reply ≠ direct rendering, or ≠ the oracle
	rows       int64 // result rows rendered by the traced direct path
	warmRT     []int64
	warmDirect []int64
}

var ctx = context.Background()

// direct makes the calls the server makes for a query, one layer at a
// time, and returns the rendering.
func (p *tracedPass) direct(tr *tracer, parent, id int, q string) (string, hql.Result, error) {
	sp := tr.begin("hql.parse", parent, id)
	e, err := hql.Parse(q)
	tr.end(sp)
	if err != nil {
		return "", hql.Result{}, err
	}
	sp = tr.begin("engine.plan", parent, id)
	_, err = engine.PlanQuery(e, p.st)
	tr.end(sp)
	if err != nil {
		return "", hql.Result{}, err
	}
	sp = tr.begin("engine.eval", parent, id)
	res, err := p.sess.Eval(ctx, e)
	tr.end(sp)
	if err != nil {
		return "", hql.Result{}, err
	}
	sp = tr.begin("hql.render", parent, id)
	text := res.String()
	tr.end(sp)
	return text, res, nil
}

// readRequest traces one query: the served round trip, the same query
// through Session.Query, and the direct path one layer at a time.
func (p *tracedPass) readRequest(id int, req *request, seen map[string]bool) error {
	root := p.tr.begin("request", -1, id)
	sp := p.tr.begin("server.roundtrip", root, id)
	raw, err := p.cl.roundTrip(req.line)
	p.tr.end(sp)
	var r reply
	if err == nil {
		r, err = decode(raw)
	}
	if err != nil {
		return err
	}
	rt := p.tr.spans[sp].End - p.tr.spans[sp].Start

	sp = p.tr.begin("direct.query", root, id)
	res, err := p.sess.Query(ctx, req.query)
	whole := ""
	if err == nil {
		whole = res.String()
	}
	p.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", req.query, err)
	}
	if seen[req.query] {
		// Both legs ran on a cached plan: their difference is the server's.
		p.warmRT = append(p.warmRT, rt)
		p.warmDirect = append(p.warmDirect, p.tr.spans[sp].End-p.tr.spans[sp].Start)
	}
	seen[req.query] = true

	// The direct path twice, traced and untraced, in alternating order so
	// neither always runs on the caches the other warmed; the difference
	// of their totals is what the spans themselves cost.
	var text string
	for leg := 0; leg < 2 && err == nil; leg++ {
		if leg == id%2 {
			sp = p.tr.begin("direct", root, id)
			text, res, err = p.direct(p.tr, sp, id, req.query)
		} else {
			sp = p.tr.begin("direct.untraced", root, id)
			_, _, err = p.direct(nil, -1, id, req.query)
		}
		p.tr.end(sp)
	}
	p.tr.end(root)
	if err != nil {
		return fmt.Errorf("%s: %w", req.query, err)
	}
	p.rows += int64(resultRows(res))
	if judge(r, req.want) != good || r.Result != text || whole != text {
		p.mismatches++
	}
	return nil
}

// writeTwin is the in-memory twin the direct write path commits into:
// the same schemes as A and B, no WAL behind them, and a scratch log
// that takes a record of the real size.
type writeTwin struct {
	a, b    *core.Relation
	log     *wal.Log
	payload []byte
}

// writeRequest traces one write group: 18 served round trips, then the
// layers below the server one at a time.
func (p *tracedPass) writeRequest(id, g int, twin *writeTwin) error {
	lines, _ := groupLines(g)
	root := p.tr.begin("request", -1, id)
	sp := p.tr.begin("server.roundtrip", root, id)
	for _, line := range lines {
		r, err := p.cl.do(line)
		if err == nil && !r.OK {
			err = fmt.Errorf("%s refused: %+v", line, *r.Error)
		}
		if err != nil {
			return err
		}
	}
	p.tr.end(sp)

	direct := p.tr.begin("direct", root, id)
	group := core.NewWriteGroup()
	for _, rel := range []*core.Relation{twin.a, twin.b} {
		for j := 0; j < groupTuples; j++ {
			sp = p.tr.begin("storage.parse_tuple", direct, id)
			t, err := storage.ParseTuple(rel.Scheme(), tupleSpec(g, j))
			p.tr.end(sp)
			if err != nil {
				return err
			}
			group.InsertMerging(rel, t)
		}
	}
	sp = p.tr.begin("core.writegroup.commit", direct, id)
	err := group.Commit()
	p.tr.end(sp)
	if err != nil {
		return err
	}
	sp = p.tr.begin("wal.append", direct, id)
	_, err = twin.log.Append(twin.payload)
	p.tr.end(sp)
	p.tr.end(direct)
	p.tr.end(root)
	return err
}

// timeEach times fn once per item and returns the sorted durations.
func timeEach(n int, fn func(i int)) []int64 {
	ds := make([]int64, n)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = int64(time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func us(ns float64) float64 { return ns / 1e3 }

// perLayer runs the traced pass and fills res with every per-layer
// metric: T from the spans and timed calls here, S from the server's
// registry around the served window, P from /proc and file sizes, L
// from the load generator.
func perLayer(cfg config, env *environment, m *measurement, killed *killedCopy, res *result) error {
	set := func(name string, v float64, unit string, n int) { res.metrics[name] = metric{v, unit, n} }

	// Open the same data in-process.
	pass := &tracedPass{tr: &tracer{t0: time.Now()}}
	var loadS, openS, checkpointS float64
	if killed != nil {
		pass.st, openS = killed.store, killed.took.Seconds()
		t0 := time.Now()
		if err := pass.st.Checkpoint(); err != nil {
			return err
		}
		checkpointS = time.Since(t0).Seconds()
	} else {
		t0 := time.Now()
		st, err := storage.Load(env.storeArg[1])
		if err != nil {
			return err
		}
		pass.st, loadS = st, time.Since(t0).Seconds()
	}
	set("storage.load_s", loadS, "s", 0)
	set("storage.open_durable_s", openS, "s", 0)
	set("storage.checkpoint_s", checkpointS, "s", 0)

	db := engine.OpenDB(pass.st)
	pass.sess = db.NewSession()
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Shutdown(ctx)
	var err error
	if pass.cl, err = dial(srv.Addr()); err != nil {
		return err
	}
	defer pass.cl.close()

	next := env.plan.reader(0)
	for i := 0; i < env.plan.traced; i++ {
		pass.reqs = append(pass.reqs, next(0))
	}
	engine.ResetPlanCache()
	seen := map[string]bool{}
	for i, req := range pass.reqs {
		if err := pass.readRequest(i, req, seen); err != nil {
			return err
		}
	}
	reads := pass.tr.spans // the write groups' spans come after these

	walRecord := 0.0
	if d := m.regAfter.CounterDelta(m.regBefore); d["wal.append.records"] > 0 {
		walRecord = float64(d["wal.append.bytes"]) / float64(d["wal.append.records"])
	}
	set("wal.bytes_per_commit", walRecord, "B", 0)
	fsyncNs := 0.0
	if killed != nil {
		if fsyncNs, err = pass.writeGroups(filepath.Join(env.dir, "scratch"), int(walRecord)); err != nil {
			return err
		}
		fs, fs0 := m.regAfter.Histograms["wal.append.fsync_ns"], m.regBefore.Histograms["wal.append.fsync_ns"]
		if n := fs.Count - fs0.Count; n > 0 {
			res.notes = append(res.notes, fmt.Sprintf("server's own wal.append.fsync_ns: mean %.1f us over %d appends",
				us(float64(fs.Sum-fs0.Sum)/float64(n)), n))
		}
	}
	spans := pass.tr.spans
	if err := writeTrace(cfg, spans); err != nil {
		return err
	}
	res.attempted += len(pass.reqs)
	if pass.mismatches > 0 {
		res.failed += pass.mismatches
		res.problems = append(res.problems, fmt.Sprintf("traced pass: %d served replies differ from the direct rendering or the oracle", pass.mismatches))
	}

	// Span medians; the write-path ones are 0 where no group was traced.
	spanMedian := func(metric, name string) float64 {
		ds := durations(spans, name)
		set(metric, us(percentile(ds, 0.5)), "us", len(ds))
		return percentile(ds, 0.5)
	}
	parse := spanMedian("hql.parse_us", "hql.parse")
	plan := spanMedian("engine.plan_us", "engine.plan")
	spanMedian("storage.parse_tuple_us", "storage.parse_tuple")
	spanMedian("core.writegroup.commit_us", "core.writegroup.commit")
	appendNs := spanMedian("wal.append_us", "wal.append")
	set("wal.fsync_us", us(max(fsyncNs-appendNs, 0)), "us", len(durations(spans, "wal.append")))

	traced, untraced := float64(sum(durations(reads, "direct"))), float64(sum(durations(reads, "direct.untraced")))
	set("trace.overhead_frac", (traced-untraced)/untraced, "ratio", len(pass.reqs))
	sort.Slice(pass.warmRT, func(i, j int) bool { return pass.warmRT[i] < pass.warmRT[j] })
	sort.Slice(pass.warmDirect, func(i, j int) bool { return pass.warmDirect[i] < pass.warmDirect[j] })
	overhead := percentile(pass.warmRT, 0.5) - percentile(pass.warmDirect, 0.5)
	set("server.roundtrip_overhead_us", us(overhead), "us", len(pass.warmRT))
	// The share of a served request spent in front of the operators.
	rt := durations(reads, "server.roundtrip")
	set("trace.front_share", (parse+plan+overhead)/max(percentile(rt, 0.5), 1), "ratio", len(rt))
	render := durations(spans, "hql.render")
	perKrow := 0.0
	if pass.rows > 0 {
		perKrow = us(float64(sum(render))) / (float64(pass.rows) / 1e3)
	}
	set("hql.render_us_per_krow", perKrow, "us", len(render))
	set("hql.naive_eval_us", us(float64(env.naive))/float64(len(env.plan.sampled)), "us", len(env.plan.sampled))

	pass.microTimings(set)
	servedLayers(env, m, res)
	return nil
}

// writeGroups traces tracedGroups write groups, durable_mixed only: each
// served over the socket, then one layer at a time into an in-memory
// twin and a scratch log taking records of the served size. It returns
// the median of an fsynced append of the same record.
func (p *tracedPass) writeGroups(scratch string, recordBytes int) (syncedNs float64, err error) {
	if err := os.MkdirAll(scratch, 0o777); err != nil {
		return 0, err
	}
	twin := &writeTwin{
		a: core.NewRelation(abScheme("A")), b: core.NewRelation(abScheme("B")),
		payload: make([]byte, max(recordBytes-16, 1)), // a record is a 16-byte frame and the payload
	}
	if twin.log, err = wal.Open(filepath.Join(scratch, "nosync.log"), wal.Options{NoSync: true}); err != nil {
		return 0, err
	}
	defer twin.log.Close()
	for g := 0; g < tracedGroups; g++ {
		// Group ids the served window never used.
		if err := p.writeRequest(len(p.reqs)+g, 900000+g, twin); err != nil {
			return 0, err
		}
	}
	synced, err := wal.Open(filepath.Join(scratch, "sync.log"), wal.Options{})
	if err != nil {
		return 0, err
	}
	defer synced.Close()
	withSync := timeEach(tracedGroups, func(int) {
		if _, aerr := synced.Append(twin.payload); aerr != nil {
			err = aerr
		}
	})
	return percentile(withSync, 0.5), err
}

// microTimings times single layers' public functions on the traced
// requests and on EMP's tuples.
func (p *tracedPass) microTimings(set func(string, float64, string, int)) {
	queries := make([]string, len(p.reqs))
	exprs := make([]hql.Expr, len(p.reqs))
	for i, req := range p.reqs {
		queries[i] = req.query
		exprs[i], _ = hql.Parse(req.query) // parsed without error in the pass above
	}
	norm := timeEach(len(queries), func(i int) { hql.NormalizeQuery(queries[i]) })
	set("hql.normalize_us", us(percentile(norm, 0.5)), "us", len(norm))

	// Cold: the plan cache is emptied before the evaluation. Cached: the
	// same evaluation again at once.
	cold, warm := make([]int64, len(exprs)), make([]int64, len(exprs))
	for i, e := range exprs {
		engine.ResetPlanCache()
		t0 := time.Now()
		p.sess.Eval(ctx, e)
		t1 := time.Now()
		p.sess.Eval(ctx, e)
		cold[i], warm[i] = int64(t1.Sub(t0)), int64(time.Since(t1))
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	// Allocations of the sequence as the server meets it: its repeats
	// hit the plan cache, its fresh texts miss.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, e := range exprs {
		p.sess.Eval(ctx, e)
	}
	runtime.ReadMemStats(&after)
	set("engine.eval_cold_us", us(percentile(cold, 0.5)), "us", len(cold))
	set("engine.eval_cached_us", us(percentile(warm, 0.5)), "us", len(warm))
	set("engine.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(len(exprs)), "count", len(exprs))
	set("engine.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(exprs)), "B", len(exprs))

	// Materialisation: the largest relation result among the traced
	// requests, rebuilt from its tuples.
	var biggest *core.Relation
	for _, e := range exprs {
		if res, err := p.sess.Eval(ctx, e); err == nil && res.Relation != nil &&
			(biggest == nil || res.Relation.Cardinality() > biggest.Cardinality()) {
			biggest = res.Relation
		}
	}
	perKrow, reps := 0.0, 0
	if biggest != nil && biggest.Cardinality() > 0 {
		_, vers := core.Pin(biggest)
		tuples := vers[0].Tuples()
		reps = 20
		ds := timeEach(reps, func(int) { core.NewRelationFromTuples(biggest.Scheme(), tuples) })
		perKrow = us(percentile(ds, 0.5)) / (float64(len(tuples)) / 1e3)
	}
	set("core.materialize_us_per_krow", perKrow, "us", reps)

	// Lifespan and time-function primitives on EMP's own tuples, each
	// against a window of the workload's widths placed on the tuple.
	emp, _ := p.st.Get("EMP")
	_, vers := core.Pin(emp)
	tuples := vers[0].Tuples()
	tuples = tuples[:min(len(tuples), 2000)]
	windows := make([]lifespan.Lifespan, len(tuples))
	for i, t := range tuples {
		lo := t.Lifespan().Min()
		windows[i] = lifespan.Interval(lo, lo+chronon.Time([]int{5, 20, 200}[i%3]-1))
	}
	const rounds = 50
	perCall := func(fn func(i int)) float64 {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := range tuples {
				fn(i)
			}
		}
		return float64(time.Since(t0)) / float64(rounds*len(tuples))
	}
	n := rounds * len(tuples)
	set("lifespan.intersect_ns", perCall(func(i int) { sink = tuples[i].Lifespan().Intersect(windows[i]) }), "ns", n)
	set("lifespan.union_ns", perCall(func(i int) { sink = tuples[i].Lifespan().Union(windows[i]) }), "ns", n)
	set("tfunc.restrict_ns", perCall(func(i int) { sink = tuples[i].Value("SAL").Restrict(windows[i]) }), "ns", n)
}

// sink keeps the compiler from discarding a timed call's result.
var sink any

// servedLayers fills in the metrics that come from the served window:
// the server's registry (S), /proc and file sizes (P), the load
// generator (L), and the end-to-end numbers that have no bound.
func servedLayers(env *environment, m *measurement, res *result) {
	out := res.metrics
	set := func(name string, v float64, unit string, n int) { out[name] = metric{v, unit, n} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := m.regAfter.CounterDelta(m.regBefore)
	c := func(name string) float64 { return float64(delta[name]) }
	hsum := func(name string) float64 {
		return float64(m.regAfter.Histograms[name].Sum - m.regBefore.Histograms[name].Sum)
	}
	queries, commits := c("engine.queries"), c("core.writegroup.commits")

	attempted, failed, _ := m.tally()
	lat := m.queryLatencies()
	set("failed_frac", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	set("query_lat_p99_us", us(percentile(lat, 0.99)), "us", len(lat))

	set("server.requests", c("server.requests"), "count", 0)
	set("server.overload_rejected", c("server.overload_rejected"), "count", 0)
	set("server.resp_bytes_per_op", ratio(float64(m.respBytes), float64(m.replies)), "B", int(m.replies))
	set("server.cpu_user_s", m.after.user-m.before.user, "s", 0)
	set("server.cpu_sys_s", m.after.sys-m.before.sys, "s", 0)

	hits, misses := c("engine.plancache.hits"), c("engine.plancache.misses")
	set("engine.plancache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("engine.plancache.evictions_per_kop", 1e3*ratio(c("engine.plancache.evictions"), queries), "count", int(queries))
	set("engine.plancache.invalidations_per_kop", 1e3*ratio(c("engine.plancache.invalidations"), queries), "count", int(queries))
	set("engine.plancache.sweeps_per_commit", ratio(c("engine.plancache.sweeps"), commits), "count", int(commits))
	set("engine.pin_retries_per_kop", 1e3*ratio(c("engine.pin_retries"), queries), "count", int(queries))
	set("engine.pin_exclusive", c("engine.pin_exclusive"), "count", 0)
	set("core.publish.pin_wait_us_per_op", us(ratio(hsum("core.publish.pin_wait_ns"), queries)), "us", int(queries))
	set("core.publish.write_wait_us_per_op", us(ratio(hsum("core.publish.write_wait_ns"), commits)), "us", int(commits))
	set("engine.naive_fallbacks", c("engine.naive_fallbacks"), "count", 0)
	if n := delta["engine.naive_fallbacks"]; n > 0 {
		// A fallback makes latency bimodal; no workload here should take one.
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("engine.naive_fallbacks = %d, want 0", n))
	}
	set("engine.parallel.tasks_per_op", ratio(c("engine.parallel.tasks"), queries), "count", int(queries))
	set("engine.parallel.inline_per_op", ratio(c("engine.parallel.inline"), queries), "count", int(queries))
	set("engine.parallel.partitions_scanned_per_op", ratio(c("engine.parallel.partitions_scanned"), queries), "count", int(queries))
	set("engine.parallel.partitions_pruned_per_op", ratio(c("engine.parallel.partitions_pruned"), queries), "count", int(queries))
	// Stage shares as the registry reports them; it is known to bill
	// tuple materialisation to execute.
	stages := []string{"parse", "plan", "pin", "execute", "materialize"}
	total := 0.0
	for _, s := range stages {
		total += hsum("engine.stage." + s + "_ns")
	}
	for _, s := range stages {
		set("engine.stage."+s+"_share", ratio(hsum("engine.stage."+s+"_ns"), total), "ratio", 0)
	}
	set("engine.index.incremental_per_commit", ratio(c("engine.index.incremental"), commits), "count", int(commits))
	set("engine.index.resyncs", c("engine.index.resyncs"), "count", 0)

	// Page-cache numbers of a sandbox, not a device's.
	set("wal.device_write_bytes", float64(m.after.writeBytes-m.before.writeBytes), "B", 0)
	set("wal.device_write_calls", float64(m.after.writeCalls-m.before.writeCalls), "count", 0)

	set("loadgen.cpu_s", m.selfCPU, "s", 0)
	var commitLat, late []int64
	var userBytes, snapGrowth, recovery float64
	if m.writer != nil {
		commitLat = append(commitLat, m.writer.commit...)
		late = append(late, m.writer.late...)
		sort.Slice(commitLat, func(i, j int) bool { return commitLat[i] < commitLat[j] })
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		userBytes = float64(m.writer.userBytes)
		snapGrowth = float64(m.crash.snapBytes - env.snapBytes)
		recovery = m.crash.recovery.Seconds()
	}
	set("loadgen.late_us_p99", us(percentile(late, 0.99)), "us", len(late))
	set("commit_lat_p50_us", us(percentile(commitLat, 0.50)), "us", len(commitLat))
	set("commit_lat_p95_us", us(percentile(commitLat, 0.95)), "us", len(commitLat))
	set("recovery_s", recovery, "s", 0)
	set("log_bytes_per_user_byte", ratio(float64(m.walBytes), userBytes), "ratio", 0)
	set("storage.snapshot_bytes_per_user_byte", ratio(snapGrowth, userBytes), "ratio", 0)
}

// writeTrace writes the pass's spans with their self times to
// out/trace-<workload>.json.
func writeTrace(cfg config, spans []span) error {
	type record struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	recs := make([]record, len(spans))
	for i, s := range spans {
		recs[i] = record{s, self[i]}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.dirs.out, "trace-"+cfg.workload+".json"), data, 0o666)
}
