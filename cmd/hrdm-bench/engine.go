package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// benchResult is one machine-readable benchmark record.
type benchResult struct {
	Op          string `json:"op"`
	Variant     string `json:"variant"` // "naive" or "indexed"
	N           int    `json:"n"`       // workload size in tuples
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	ResultRows  int    `json:"result_rows"`
}

// benchFile is the BENCH_engine.json document.
type benchFile struct {
	Workload struct {
		Tuples     int `json:"tuples"`
		RefTuples  int `json:"ref_tuples"`
		HistoryLen int `json:"history_len"`
	} `json:"workload"`
	Results  []benchResult      `json:"results"`
	Speedups map[string]float64 `json:"speedups"`
	// ConcurrentClients records the served-over-TCP scaling scenario:
	// one record per client count (see benchConcurrentClients).
	ConcurrentClients []serverBenchResult `json:"concurrent_clients"`
	// ScenarioMetrics records, per scenario, the counter increments the
	// engine's metric registry saw while that scenario ran — plan-cache
	// traffic, pin retries, index maintenance, write-group commits. The
	// deltas are taken from live snapshots (no registry resets mid-run),
	// so they compose: summing them approaches the final totals.
	ScenarioMetrics map[string]map[string]uint64 `json:"scenario_metrics"`
	// Metrics is the full registry snapshot at the end of the run,
	// including gauges and latency histograms (see docs/OBSERVABILITY.md).
	Metrics obs.Snapshot `json:"metrics"`
}

// runEngineBench generates the workload, times each operation through
// the naive evaluator and the indexed engine, and writes the JSON file.
func runEngineBench(args []string) error {
	fs := flag.NewFlagSet("hrdm-bench -json", flag.ContinueOnError)
	n := fs.Int("n", 50000, "number of tuples in the generated workload")
	refN := fs.Int("ref", 200, "number of tuples in the join probe relation")
	out := fs.String("out", "BENCH_engine.json", "output path for the JSON results")
	workers := fs.Int("workers", 0, "default parallel degree for the indexed runs (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("-json mode takes no experiment arguments (got %q); run experiments without -json", fs.Args())
	}

	// Sparse shape: short employments scattered over a long clock, so a
	// narrow time window genuinely selects few objects — the regime every
	// served temporal database lives in.
	const historyLen, maxTenure = 100000, 40
	fmt.Printf("generating %d-tuple personnel workload (clock %d, tenure ≤%d)...\n", *n, historyLen, maxTenure)
	emp := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: *n, HistoryLen: historyLen, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: maxTenure, Seed: 7,
	})
	st := storage.NewStore()
	st.Put(emp)
	st.Put(benchRef(*refN, emp))
	st.RebuildIndexes()
	// Warm the non-key attribute index outside the timed region, as a
	// served database would.
	engine.Indexes(emp).Attr("DEPT")
	// The indexed variants run through the explicit Session API, exactly
	// like every other entry point (CLI, server); the naive variants call
	// hql.EvalNaive directly because the pre-index evaluator IS the
	// baseline under measurement, not a code path a client would use.
	ctx := context.Background()
	sess := engine.OpenDBOptions(st, engine.DBOptions{Workers: *workers}).NewSession()

	var doc benchFile
	doc.Workload.Tuples = *n
	doc.Workload.RefTuples = *refN
	doc.Workload.HistoryLen = historyLen
	doc.Speedups = make(map[string]float64)
	doc.ScenarioMetrics = make(map[string]map[string]uint64)

	// scenario brackets a benchmark scenario with registry snapshots and
	// records the counter deltas it caused under its name.
	scenario := func(name string, fn func()) {
		before := obs.Default.Snapshot()
		fn()
		doc.ScenarioMetrics[name] = obs.Default.Snapshot().CounterDelta(before)
	}

	bench := func(op, variant, query string, naive bool) benchResult {
		e, err := hql.Parse(query)
		if err != nil {
			panic(fmt.Sprintf("parse %q: %v", query, err))
		}
		rows := 0
		run := func() (hql.Result, error) {
			if naive {
				// The naive evaluator is the measured baseline, not a served path.
				return hql.EvalNaive(e, st)
			}
			return sess.Eval(ctx, e)
		}
		if res, err := run(); err != nil {
			panic(fmt.Sprintf("run %q: %v", query, err))
		} else if res.Relation != nil {
			rows = res.Relation.Cardinality()
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		r := benchResult{Op: op, Variant: variant, N: *n, Iters: br.N,
			NsPerOp: br.NsPerOp(), AllocsPerOp: br.AllocsPerOp(), BytesPerOp: br.AllocedBytesPerOp(),
			ResultRows: rows}
		fmt.Printf("  %-28s %-8s %14d ns/op %12d allocs/op %8d rows\n",
			op, variant, r.NsPerOp, r.AllocsPerOp, rows)
		return r
	}

	pair := func(op, query string) {
		scenario(op, func() {
			fmt.Printf("%s: %s\n", op, query)
			nv := bench(op, "naive", query, true)
			ix := bench(op, "indexed", query, false)
			doc.Results = append(doc.Results, nv, ix)
			if ix.NsPerOp > 0 {
				s := float64(nv.NsPerOp) / float64(ix.NsPerOp)
				doc.Speedups[op] = s
				fmt.Printf("  speedup: %.1f×\n", s)
			}
		})
	}

	pair("timeslice_when", `TIMESLICE EMP AT {[50000,50004]}`)
	keyName := fmt.Sprintf("emp%04d", *n/2)
	pair("select_key_eq", fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, keyName))
	pair("select_attr_eq", `SELECT WHEN DEPT = 'Toys' FROM EMP`)
	pair("select_during", `SELECT WHEN SAL > 30000 DURING {[50000,50019]} FROM EMP`)
	pair("equijoin_key", `REF JOIN EMP ON RNAME = NAME`)

	scenario("repeat_query", func() {
		benchRepeatedQuery(&doc, sess, "repeat_query",
			`SELECT WHEN SAL > 30000 DURING {[50000,50019]} FROM EMP`)
	})
	scenario("repeat_key_eq", func() {
		benchRepeatedQuery(&doc, sess, "repeat_key_eq",
			fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, keyName))
	})
	scenario("insert_query_mix", func() { benchInsertHeavy(&doc, *n) })
	scenario("bulk_load", func() { benchBulkLoad(&doc, *n) })
	scenario("multi_rel_race", func() { benchMultiRelRace(&doc) })
	scenario("write_group", func() { benchWriteGroup(&doc) })
	scenario("wal_commit", func() { benchWalCommit(&doc) })
	scenario("concurrent_clients", func() {
		benchConcurrentClients(&doc, st,
			fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, keyName))
	})
	scenario("parallel_speedup", func() { benchParallelSpeedup(&doc, *n, *refN) })
	doc.Metrics = obs.Default.Snapshot()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// benchRepeatedQuery measures the plan cache: the same query served
// cold (cache cleared every run, so each run pays parse + plan,
// including the plan-time index probes) versus cached (every run after
// the first skips straight to execution).
func benchRepeatedQuery(doc *benchFile, sess *engine.Session, op, q string) {
	fmt.Printf("%s: %s (cold plan-and-execute vs plan cache)\n", op, q)
	ctx := context.Background()
	rows := 0
	if res, err := sess.Query(ctx, q); err != nil {
		panic(fmt.Sprintf("run %q: %v", q, err))
	} else if res.Relation != nil {
		rows = res.Relation.Cardinality()
	}
	record := func(variant string, fn func() error) benchResult {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		r := benchResult{Op: op, Variant: variant, N: doc.Workload.Tuples, Iters: br.N,
			NsPerOp: br.NsPerOp(), AllocsPerOp: br.AllocsPerOp(), BytesPerOp: br.AllocedBytesPerOp(),
			ResultRows: rows}
		fmt.Printf("  %-28s %-8s %14d ns/op %12d allocs/op %8d rows\n",
			op, variant, r.NsPerOp, r.AllocsPerOp, rows)
		doc.Results = append(doc.Results, r)
		return r
	}
	cold := record("cold", func() error {
		engine.ResetPlanCache()
		_, err := sess.Query(ctx, q)
		return err
	})
	engine.ResetPlanCache()
	if _, err := sess.Query(ctx, q); err != nil { // prime the cache
		panic(err)
	}
	cached := record("cached", func() error {
		_, err := sess.Query(ctx, q)
		return err
	})
	if cached.NsPerOp > 0 {
		s := float64(cold.NsPerOp) / float64(cached.NsPerOp)
		doc.Speedups[op+"_cached"] = s
		fmt.Printf("  speedup: %.1f×\n", s)
	}
	hits, misses, _ := engine.PlanCacheStats()
	fmt.Printf("  plan cache: %d hits / %d misses during the cached pass\n", hits, misses)
}

// benchInsertHeavy measures incremental index maintenance under an
// insert-interleaved query stream: every iteration inserts one fresh
// tuple into a warm-indexed relation and runs an indexed query against
// it. The "rebuild" variant drops the catalog entry after each insert —
// the engine's pre-incremental behavior, where any write forced the
// next query to rebuild every index — while "incremental" lets the
// change notifications maintain the indexes in place.
func benchInsertHeavy(doc *benchFile, n int) {
	base := n / 10
	if base < 500 {
		base = 500
	}
	const inserts = 300
	fmt.Printf("insert_query_mix: %d inserts into a %d-tuple relation, one indexed query per insert\n", inserts, base)
	run := func(variant string, invalidate bool) benchResult {
		emp := workload.Personnel(workload.PersonnelConfig{
			NumEmployees: base, HistoryLen: 100000, ChangeEvery: 25,
			ReincarnationProb: 0.2, MaxTenure: 40, Seed: 23,
		})
		st := storage.NewStore()
		st.Put(emp)
		st.RebuildIndexes()
		engine.Indexes(emp).Attr("DEPT")
		engine.ResetPlanCache()
		ctx := context.Background()
		sess := engine.OpenDB(st).NewSession()
		queries := []string{
			`TIMESLICE EMP AT {[50000,50004]}`,
			`SELECT WHEN DEPT = 'Toys' FROM EMP`,
		}
		ib0, ab0, inc0, _ := engine.IndexMetrics()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < inserts; i++ {
			lo := chronon.Time(10 * i % 99000)
			t := core.NewTupleBuilder(emp.Scheme(), lifespan.Interval(lo, lo+9)).
				Key("NAME", value.String_(fmt.Sprintf("fresh%05d", i))).
				Set("SAL", lo, lo+9, value.Int(32000)).
				Set("DEPT", lo, lo+9, value.String_("Fresh")).
				MustBuild()
			if err := emp.Insert(t); err != nil {
				panic(fmt.Sprintf("insert %d: %v", i, err))
			}
			if invalidate {
				engine.InvalidateIndexes(emp)
			}
			if _, err := sess.Query(ctx, queries[i%len(queries)]); err != nil {
				panic(fmt.Sprintf("query after insert %d: %v", i, err))
			}
		}
		total := time.Since(start)
		runtime.ReadMemStats(&m1)
		ib1, ab1, inc1, _ := engine.IndexMetrics()
		r := benchResult{Op: "insert_query_mix", Variant: variant, N: base, Iters: inserts,
			NsPerOp:     total.Nanoseconds() / inserts,
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / inserts,
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / inserts,
			ResultRows:  emp.Cardinality()}
		fmt.Printf("  %-28s %-8s %14d ns/op (full index builds %d, attr builds %d, incremental ops %d)\n",
			"insert_query_mix", variant, r.NsPerOp, ib1-ib0, ab1-ab0, inc1-inc0)
		doc.Results = append(doc.Results, r)
		return r
	}
	rebuild := run("rebuild", true)
	incr := run("incremental", false)
	if incr.NsPerOp > 0 {
		s := float64(rebuild.NsPerOp) / float64(incr.NsPerOp)
		doc.Speedups["insert_query_mix_incremental"] = s
		fmt.Printf("  speedup: %.1f×\n", s)
	}
}

// benchBulkLoad measures the batched bulk-load path against per-tuple
// insertion: n tuples loaded into an index-warm, store-registered
// relation either one Insert at a time (n publications, n observer
// notifications, n single-tuple index overlays with their compaction
// cascade) or via one InsertBatch (one publication, one coalesced
// index merge). Tuple construction is hoisted out of both timed
// regions, so the ratio isolates the write path itself.
func benchBulkLoad(doc *benchFile, n int) {
	fmt.Printf("bulk_load: %d tuples, per-tuple inserts vs one batch (warm indexes)\n", n)
	src := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 99,
	})
	_, srcVers := core.Pin(src)
	tuples := srcVers[0].Tuples()

	run := func(variant string, load func(dst *core.Relation) error) benchResult {
		dst := core.NewRelation(src.Scheme())
		st := storage.NewStore()
		st.Put(dst)
		st.RebuildIndexes()
		engine.Indexes(dst).Attr("DEPT")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := load(dst); err != nil {
			panic(fmt.Sprintf("bulk_load %s: %v", variant, err))
		}
		total := time.Since(start)
		runtime.ReadMemStats(&m1)
		engine.InvalidateIndexes(dst)
		r := benchResult{Op: "bulk_load", Variant: variant, N: n, Iters: n,
			NsPerOp:     total.Nanoseconds() / int64(n),
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
			ResultRows:  dst.Cardinality()}
		fmt.Printf("  %-28s %-8s %14d ns/op %12d allocs/op %8d rows (total %s)\n",
			"bulk_load", variant, r.NsPerOp, r.AllocsPerOp, r.ResultRows, total)
		doc.Results = append(doc.Results, r)
		return r
	}
	per := run("per_tuple", func(dst *core.Relation) error {
		for _, t := range tuples {
			if err := dst.Insert(t); err != nil {
				return err
			}
		}
		return nil
	})
	batch := run("batch", func(dst *core.Relation) error {
		return dst.InsertBatch(tuples)
	})
	if batch.NsPerOp > 0 {
		s := float64(per.NsPerOp) / float64(batch.NsPerOp)
		doc.Speedups["bulk_load"] = s
		fmt.Printf("  speedup: %.1f×\n", s)
	}
}

// benchMultiRelRace measures snapshot-pinned multi-relation querying
// under a concurrent batch writer — the scenario the epoch layer
// exists for. A writer batch-loads the same keys into A then B while
// readers run `B MINUS A` (empty at every epoch-consistent cut) and
// `A MINUS B` (whole batches only); the scenario records mean query
// latency under write pressure and counts consistency violations,
// which must be zero.
func benchMultiRelRace(doc *benchFile) {
	const rounds, batchN = 400, 50
	fmt.Printf("multi_rel_race: queries racing %d×%d-tuple batches across two relations\n",
		rounds, batchN)
	full := lifespan.Interval(0, 999)
	mkScheme := func(name string) *schema.Scheme {
		return schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
	}
	sa, sb := mkScheme("A"), mkScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)
	st.RebuildIndexes()
	ctx := context.Background()
	sess := engine.OpenDB(st).NewSession()

	stop := make(chan struct{})
	var writerErr error
	go func() {
		defer close(stop)
		for i := 0; i < rounds; i++ {
			mk := func(s *schema.Scheme) []*core.Tuple {
				ts := make([]*core.Tuple, batchN)
				for j := range ts {
					ts[j] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
						Key("K", value.String_(fmt.Sprintf("k%06d", i*batchN+j))).
						Set("V", 0, 9, value.Int(int64(j))).
						MustBuild()
				}
				return ts
			}
			if writerErr = a.InsertBatch(mk(sa)); writerErr != nil {
				return
			}
			if writerErr = b.InsertBatch(mk(sb)); writerErr != nil {
				return
			}
		}
	}()

	// Query for as long as the writer is loading, so every measured
	// query races live publications rather than a quiesced store.
	violations, queries := 0, 0
	start := time.Now()
	for loading := true; loading; {
		select {
		case <-stop:
			loading = false
		default:
		}
		q := []string{`B MINUS A`, `A MINUS B`}[queries%2]
		res, err := sess.Query(ctx, q)
		if err != nil {
			panic(fmt.Sprintf("multi_rel_race %s: %v", q, err))
		}
		n := res.Relation.Cardinality()
		if (q == `B MINUS A` && n != 0) || (q == `A MINUS B` && n%batchN != 0) {
			violations++
		}
		queries++
	}
	total := time.Since(start)
	if writerErr != nil {
		panic(fmt.Sprintf("multi_rel_race writer: %v", writerErr))
	}
	r := benchResult{Op: "multi_rel_race", Variant: "snapshot", N: rounds * batchN, Iters: queries,
		NsPerOp:    total.Nanoseconds() / int64(queries),
		ResultRows: violations}
	fmt.Printf("  %-28s %-8s %14d ns/op %8d consistency violations (must be 0)\n",
		"multi_rel_race", "snapshot", r.NsPerOp, violations)
	if violations > 0 {
		panic(fmt.Sprintf("multi_rel_race: %d epoch-consistency violations", violations))
	}
	doc.Results = append(doc.Results, r)
}

// benchWriteGroup measures cross-relation atomic write groups. Two
// parts:
//
//  1. Cost: the same load — rounds of one batch into each of three
//     store-registered, index-warm relations — applied either as three
//     sequential InsertBatch publications per round or as one
//     WriteGroup commit per round. The group turns three publish-lock
//     rounds, three epoch ticks and three index merges per logical
//     update into one of each, so atomicity should come at (better
//     than) no cost; the recorded ratio proves it.
//  2. Atomicity: a writer commits groups inserting the same keys into
//     relations A and B while readers run `A MINUS B` and `B MINUS A`
//     through the engine. Sequential batches legitimately expose
//     windows where A runs ahead; a group must not — both differences
//     are empty at every cut, and any surviving tuple counts as a
//     torn-group violation (must be zero, mirroring multi_rel_race).
func benchWriteGroup(doc *benchFile) {
	const rounds, batchN, relsN = 200, 50, 3
	fmt.Printf("write_group: %d rounds × %d relations × %d tuples, sequential batches vs one group\n",
		rounds, relsN, batchN)
	full := lifespan.Interval(0, 999)
	mkScheme := func(name string) *schema.Scheme {
		return schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
	}
	mkBatch := func(s *schema.Scheme, round int) []*core.Tuple {
		ts := make([]*core.Tuple, batchN)
		for j := range ts {
			ts[j] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
				Key("K", value.String_(fmt.Sprintf("k%06d", round*batchN+j))).
				Set("V", 0, 9, value.Int(int64(j))).
				MustBuild()
		}
		return ts
	}

	run := func(variant string, apply func(rels []*core.Relation, batches [][]*core.Tuple) error) benchResult {
		schemes := make([]*schema.Scheme, relsN)
		rels := make([]*core.Relation, relsN)
		st := storage.NewStore()
		for i := range rels {
			schemes[i] = mkScheme(fmt.Sprintf("G%d", i))
			rels[i] = core.NewRelation(schemes[i])
			st.Put(rels[i])
		}
		st.RebuildIndexes()
		// Tuple construction is hoisted out of the timed region (like
		// bulk_load), and the heap is quiesced first, so the ratio
		// isolates the publication paths themselves.
		prebuilt := make([][][]*core.Tuple, rounds)
		for i := range prebuilt {
			prebuilt[i] = make([][]*core.Tuple, relsN)
			for j := range prebuilt[i] {
				prebuilt[i][j] = mkBatch(schemes[j], i)
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := apply(rels, prebuilt[i]); err != nil {
				panic(fmt.Sprintf("write_group %s round %d: %v", variant, i, err))
			}
		}
		total := time.Since(start)
		runtime.ReadMemStats(&m1)
		r := benchResult{Op: "write_group", Variant: variant, N: rounds * batchN * relsN, Iters: rounds,
			NsPerOp:     total.Nanoseconds() / rounds,
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / rounds,
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / rounds,
			ResultRows:  rels[0].Cardinality()}
		fmt.Printf("  %-28s %-8s %14d ns/op %12d allocs/op %8d rows/rel (total %s)\n",
			"write_group", variant, r.NsPerOp, r.AllocsPerOp, r.ResultRows, total)
		doc.Results = append(doc.Results, r)
		return r
	}
	seq := run("sequential", func(rels []*core.Relation, batches [][]*core.Tuple) error {
		for i, r := range rels {
			if err := r.InsertBatch(batches[i]); err != nil {
				return err
			}
		}
		return nil
	})
	grp := run("group", func(rels []*core.Relation, batches [][]*core.Tuple) error {
		g := core.NewWriteGroup()
		for i, r := range rels {
			g.InsertBatch(r, batches[i])
		}
		return g.Commit()
	})
	if grp.NsPerOp > 0 {
		s := float64(seq.NsPerOp) / float64(grp.NsPerOp)
		doc.Speedups["write_group"] = s
		fmt.Printf("  group vs sequential: %.2f× (atomicity at no extra publication cost)\n", s)
	}

	// Part 2 — torn-group detector under live read pressure.
	sa, sb := mkScheme("A"), mkScheme("B")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st := storage.NewStore()
	st.Put(a)
	st.Put(b)
	st.RebuildIndexes()
	ctx := context.Background()
	sess := engine.OpenDB(st).NewSession()
	stop := make(chan struct{})
	var writerErr error
	go func() {
		defer close(stop)
		for i := 0; i < rounds; i++ {
			g := core.NewWriteGroup()
			g.InsertBatch(a, mkBatch(sa, i))
			g.InsertBatch(b, mkBatch(sb, i))
			if writerErr = g.Commit(); writerErr != nil {
				return
			}
		}
	}()
	violations, queries := 0, 0
	start := time.Now()
	for loading := true; loading; {
		select {
		case <-stop:
			loading = false
		default:
		}
		q := []string{`A MINUS B`, `B MINUS A`}[queries%2]
		res, err := sess.Query(ctx, q)
		if err != nil {
			panic(fmt.Sprintf("write_group %s: %v", q, err))
		}
		if res.Relation.Cardinality() != 0 {
			violations++
		}
		queries++
	}
	total := time.Since(start)
	if writerErr != nil {
		panic(fmt.Sprintf("write_group writer: %v", writerErr))
	}
	r := benchResult{Op: "write_group", Variant: "atomic", N: rounds * batchN, Iters: queries,
		NsPerOp:    total.Nanoseconds() / int64(max(queries, 1)),
		ResultRows: violations}
	fmt.Printf("  %-28s %-8s %14d ns/op %8d torn-group observations (must be 0)\n",
		"write_group", "atomic", r.NsPerOp, violations)
	if violations > 0 {
		panic(fmt.Sprintf("write_group: %d torn-group observations", violations))
	}
	doc.Results = append(doc.Results, r)
}

// benchRef builds the REF relation the equijoin probes: refN tuples
// keyed by existing employee names, each covering its employee's
// actual employment window so the join produces real output — the
// recorded speedup then measures index-accelerated joining, not the
// fast construction of an empty result.
func benchRef(refN int, emp *core.Relation) *core.Relation {
	empN := emp.Cardinality()
	if refN > empN/2 {
		// Names are drawn from empN distinct employees; drawing close to
		// (or past) all of them would spin forever on duplicate keys.
		refN = empN / 2
		fmt.Printf("  (capping -ref at %d, half the employee population)\n", refN)
	}
	full := lifespan.Interval(0, 99999)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "GRP", Domain: value.Strings, Lifespan: full},
	)
	ref := core.NewRelation(rs)
	rng := rand.New(rand.NewSource(17))
	_, empVers := core.Pin(emp)
	emps := empVers[0].Tuples()
	for ref.Cardinality() < refN {
		et := emps[rng.Intn(empN)]
		ls := et.Lifespan()
		// GRP is near-unique (mostly synthetic group names, every 25th a
		// real department): high-cardinality on the small side is what
		// makes the planner stream the big EMP side in the DEPT = GRP
		// join the parallel_speedup scenario measures, while the sprinkled
		// department names keep that join's output non-empty.
		grp := fmt.Sprintf("G%05d", ref.Cardinality())
		if ref.Cardinality()%25 == 0 {
			grp = []string{"Toys", "Shoes", "Books", "Tools", "Music"}[(ref.Cardinality()/25)%5]
		}
		b := core.NewTupleBuilder(rs, ls).
			Key("RNAME", value.String_(et.KeyValue("NAME").AsString())).
			SetConst("GRP", value.String_(grp))
		for _, iv := range ls.Intervals() {
			b.Set("BONUS", iv.Lo, iv.Hi, value.Int(int64(1000*rng.Intn(10))))
		}
		if err := ref.Insert(b.MustBuild()); err != nil {
			continue // duplicate name; draw again
		}
	}
	return ref
}

// benchWalCommit prices durability: the write_group "group" load — one
// WriteGroup of three 50-tuple batches per round — committed into an
// in-memory store, into a durable store with the per-commit fsync
// elided (framing, CRC and LSN bookkeeping only), and into a durable
// store under the production fsync-before-publish discipline. The
// recorded overhead ratios are what crash safety costs a group commit;
// the fsync variant is dominated by the disk's flush latency, which is
// exactly the point.
func benchWalCommit(doc *benchFile) {
	const rounds, batchN, relsN = 200, 50, 3
	fmt.Printf("wal_commit: %d group commits × %d relations × %d tuples, memory vs WAL(nosync) vs WAL(fsync)\n",
		rounds, relsN, batchN)
	full := lifespan.Interval(0, 999)
	mkScheme := func(name string) *schema.Scheme {
		return schema.MustNew(name, []string{"K"},
			schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
			schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
		)
	}
	mkBatch := func(s *schema.Scheme, round int) []*core.Tuple {
		ts := make([]*core.Tuple, batchN)
		for j := range ts {
			ts[j] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
				Key("K", value.String_(fmt.Sprintf("k%06d", round*batchN+j))).
				Set("V", 0, 9, value.Int(int64(j))).
				MustBuild()
		}
		return ts
	}

	run := func(variant string, open func() (*storage.Store, func(), error)) benchResult {
		st, done, err := open()
		if err != nil {
			panic(fmt.Sprintf("wal_commit %s: %v", variant, err))
		}
		defer done()
		schemes := make([]*schema.Scheme, relsN)
		rels := make([]*core.Relation, relsN)
		for i := range rels {
			schemes[i] = mkScheme(fmt.Sprintf("W%s%d", variant, i))
			rels[i] = core.NewRelation(schemes[i])
			st.Put(rels[i])
		}
		prebuilt := make([][][]*core.Tuple, rounds)
		for i := range prebuilt {
			prebuilt[i] = make([][]*core.Tuple, relsN)
			for j := range prebuilt[i] {
				prebuilt[i][j] = mkBatch(schemes[j], i)
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			g := core.NewWriteGroup()
			for j, r := range rels {
				g.InsertBatch(r, prebuilt[i][j])
			}
			if err := g.Commit(); err != nil {
				panic(fmt.Sprintf("wal_commit %s round %d: %v", variant, i, err))
			}
		}
		total := time.Since(start)
		runtime.ReadMemStats(&m1)
		r := benchResult{Op: "wal_commit", Variant: variant, N: rounds * batchN * relsN, Iters: rounds,
			NsPerOp:     total.Nanoseconds() / rounds,
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / rounds,
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / rounds,
			ResultRows:  rels[0].Cardinality()}
		fmt.Printf("  %-28s %-10s %14d ns/op %12d allocs/op %8d rows/rel (total %s)\n",
			"wal_commit", variant, r.NsPerOp, r.AllocsPerOp, r.ResultRows, total)
		doc.Results = append(doc.Results, r)
		return r
	}

	mem := run("memory", func() (*storage.Store, func(), error) {
		return storage.NewStore(), func() {}, nil
	})
	durable := func(opts storage.DurableOptions) func() (*storage.Store, func(), error) {
		return func() (*storage.Store, func(), error) {
			dir, err := os.MkdirTemp("", "hrdm-wal-bench-*")
			if err != nil {
				return nil, nil, err
			}
			st, _, err := storage.OpenDurableOptions(dir, opts)
			if err != nil {
				os.RemoveAll(dir)
				return nil, nil, err
			}
			// Close (final checkpoint + log release) stays outside the
			// timed region; the temp dir goes with it.
			return st, func() { st.Close(); os.RemoveAll(dir) }, nil
		}
	}
	nosync := run("wal_nosync", durable(storage.DurableOptions{NoSync: true}))
	fsync := run("wal_fsync", durable(storage.DurableOptions{}))

	if mem.NsPerOp > 0 {
		no := float64(nosync.NsPerOp) / float64(mem.NsPerOp)
		fs := float64(fsync.NsPerOp) / float64(mem.NsPerOp)
		doc.Speedups["wal_commit_nosync_overhead"] = no
		doc.Speedups["wal_commit_fsync_overhead"] = fs
		fmt.Printf("  WAL overhead vs in-memory group commit: %.2f× without fsync, %.2f× with fsync\n", no, fs)
	}
}

// benchParallelSpeedup measures the partitioned parallel executor:
// scan, select and join plans at worker degrees 1/2/4/8, at the base
// workload size and at 10× it. The degree binds at snapshot-pin time
// from the query context — the plan is identical across degrees — so
// the w1 variant times the same partitioned plan run inline and the
// ratios isolate the worker pool itself. The recorded curve is honest
// for the machine it ran on: on a single-CPU host the w2..w8 variants
// measure coordination overhead, not speedup (the CPU count is in the
// output for exactly that reason). The partition threshold is lowered
// to size/8 for the scenario so CI-smoke sizes still plan parallel
// operators, then restored.
func benchParallelSpeedup(doc *benchFile, n, refN int) {
	degrees := []int{1, 2, 4, 8}
	fmt.Printf("parallel_speedup: scan/select/join at workers %v on %d and %d tuples (%d CPUs)\n",
		degrees, n, 10*n, runtime.NumCPU())
	for _, size := range []int{n, 10 * n} {
		thr := size / 8
		if thr < 64 {
			thr = 64
		}
		if thr > 4096 {
			thr = 4096
		}
		oldThr := engine.SetParallelThreshold(thr)
		engine.ResetPlanCache()

		emp := workload.Personnel(workload.PersonnelConfig{
			NumEmployees: size, HistoryLen: 100000, ChangeEvery: 25,
			ReincarnationProb: 0.2, MaxTenure: 40, Seed: 31,
		})
		st := storage.NewStore()
		st.Put(emp)
		st.Put(benchRef(refN, emp))
		st.RebuildIndexes()
		sess := engine.OpenDB(st).NewSession()

		ops := []struct{ op, query string }{
			// No equality conjunct and no DURING window on the selects, so
			// the planner has no index arm to prefer: both lower to a
			// (parallel) filter over the base scan. The join streams the big
			// EMP side (REF.GRP is near-unique, so probing its buckets is
			// far cheaper than streaming REF into EMP's fat DEPT buckets),
			// partitions of the stream probing REF's attribute index.
			{"scan", `SELECT WHEN SAL >= 0 FROM EMP`},
			{"select", `SELECT WHEN SAL > 30000 FROM EMP`},
			{"join", `EMP JOIN REF ON DEPT = GRP`},
		}
		for _, o := range ops {
			plan, err := sess.Explain(o.query)
			if err != nil {
				panic(fmt.Sprintf("explain %q: %v", o.query, err))
			}
			if !strings.Contains(plan, "parallel") {
				panic(fmt.Sprintf("parallel_speedup %s plan is not parallel at threshold %d:\n%s", o.op, thr, plan))
			}
			e, err := hql.Parse(o.query)
			if err != nil {
				panic(fmt.Sprintf("parse %q: %v", o.query, err))
			}
			var base int64
			for _, w := range degrees {
				ctxw := engine.WithWorkers(context.Background(), w)
				rows := 0
				if res, err := sess.Eval(ctxw, e); err != nil {
					panic(fmt.Sprintf("run %q at w=%d: %v", o.query, w, err))
				} else if res.Relation != nil {
					rows = res.Relation.Cardinality()
				}
				br := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := sess.Eval(ctxw, e); err != nil {
							b.Fatal(err)
						}
					}
				})
				r := benchResult{Op: "parallel_speedup_" + o.op, Variant: fmt.Sprintf("w%d", w), N: size,
					Iters: br.N, NsPerOp: br.NsPerOp(), AllocsPerOp: br.AllocsPerOp(),
					BytesPerOp: br.AllocedBytesPerOp(), ResultRows: rows}
				fmt.Printf("  %-28s %-8s %14d ns/op %12d allocs/op %8d rows (n=%d)\n",
					r.Op, r.Variant, r.NsPerOp, r.AllocsPerOp, rows, size)
				doc.Results = append(doc.Results, r)
				if w == 1 {
					base = r.NsPerOp
				} else if size == n && r.NsPerOp > 0 {
					doc.Speedups[fmt.Sprintf("parallel_speedup_%s_w%d", o.op, w)] =
						float64(base) / float64(r.NsPerOp)
				}
			}
		}
		engine.SetParallelThreshold(oldThr)
		engine.ResetPlanCache()
	}
}
