package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// Workload names; later issues claim against these.
const (
	wlPointLookup    = "point_lookup"
	wlTemporalWindow = "temporal_window"
	wlScanJoin       = "scan_join"
	wlDurableMixed   = "durable_mixed"
)

var workloadNames = []string{wlPointLookup, wlTemporalWindow, wlScanJoin, wlDurableMixed}

// The EMP shape is hrdm-bench's: short employments scattered over a
// long clock, so a narrow time window selects few objects.
const (
	historyLen = 100000
	maxTenure  = 40
	abClock    = 999 // A and B live on [0,abClock], as in hrdm-bench's write_group

	hotKeys       = 64  // point_lookup's hot set; fits the 256-entry plan cache
	windowPool    = 192 // temporal_window's texts; fits the plan cache
	timeslicePool = 64  // durable_mixed's TIMESLICE texts
	groupTuples   = 8   // tuples staged into each of A and B per write group
	groupsPerSec  = 100 // the paced writer's fixed schedule
	seqHashLen    = 2000
	tracedReads   = 2000 // requests of the traced pass (200 on scan_join)
	tracedGroups  = 100  // write groups of durable_mixed's traced pass
)

// sizes are the tuple counts of the generated relations. The full sizes
// are smaller than the issue's (50 000 / 10 000 / 200) by the factor the
// driver's time cap forces: set-up runs three times per run and includes
// the naive oracle, whose cost is linear in EMP (quadratic for a join).
type sizes struct {
	emp     int // EMP in point_lookup and temporal_window
	scanEmp int // EMP in scan_join; stays above the 4096 parallel threshold
	ref     int // REF in scan_join
	ab      int // preloaded tuples in each of A and B
	durEmp  int // EMP in durable_mixed
}

var fullSizes = sizes{emp: 20000, scanEmp: 5000, ref: 100, ab: 20000, durEmp: 5000}

// expect is what a correct reply to a request looks like. rows < 0
// means only ok:true is checked; hashed adds the FNV-1a hash of the
// rendering, taken from hql.EvalNaive by the oracle.
type expect struct {
	rows   int
	hash   uint64
	hashed bool
}

// request is one generated protocol line and how to check its reply.
type request struct {
	line  []byte // one JSON object and '\n', as sent
	query string // the HQL text; "" for write ops
	want  expect
}

// opLine is one protocol line.
func opLine(fields map[string]string) []byte {
	line, err := json.Marshal(fields)
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return append(line, '\n')
}

func queryRequest(q string, rows int) *request {
	return &request{line: opLine(map[string]string{"op": "query", "q": q}), query: q, want: expect{rows: rows}}
}

// plan is everything a run of one workload needs that derives from
// (seed, workload, sizes) alone: the data, the request sequences of the
// two connections, and the texts the oracle samples.
type plan struct {
	store   *storage.Store // generated relations, in memory
	durable bool
	// readers is the number of closed-loop connections; reader starts
	// connection conn's sequence from its beginning. The sequence's
	// frontier argument is the paced writer's progress (the group it is
	// committing) and is 0 on read-only workloads.
	readers int
	reader  func(conn int) func(frontier int) *request
	sampled []*request // pool texts the oracle computes answers for
	traced  int        // read requests in the traced pass
	// seqHash identifies the generated sequences: FNV-1a over the first
	// seqHashLen lines of every reader (frontier 0) and, on
	// durable_mixed, of the writer. Same (seed, workload, sizes), same hash.
	seqHash uint64
}

func seqSeed(seed int64, name string, conn int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, conn)
	return int64(h.Sum64() >> 1)
}

func personnel(n int, seed int64) *core.Relation {
	return workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: historyLen, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: maxTenure, Seed: seed,
	})
}

func empKey(i int) string { return fmt.Sprintf("emp%04d", i) }

// newPlan generates the workload's data and request sequences.
func newPlan(name string, seed int64, sz sizes) (*plan, error) {
	p := &plan{store: storage.NewStore(), traced: tracedReads}
	pool := rand.New(rand.NewSource(seqSeed(seed, name, -1)))
	// reader makes one connection's sequence from that connection's rng.
	var reader func(rng *rand.Rand) func(frontier int) *request
	uniform := func(reqs []*request) {
		reader = func(rng *rand.Rand) func(int) *request {
			return func(int) *request { return reqs[rng.Intn(len(reqs))] }
		}
	}

	switch name {
	case wlPointLookup:
		p.store.Put(personnel(sz.emp, seed))
		all := make([]*request, sz.emp)
		for i := range all {
			all[i] = queryRequest(fmt.Sprintf(`SELECT WHEN NAME = '%s' FROM EMP`, empKey(i)), 1)
		}
		hot := make([]*request, 0, hotKeys)
		for _, i := range pool.Perm(sz.emp)[:min(hotKeys, sz.emp)] {
			hot = append(hot, all[i])
		}
		p.sampled = hot
		reader = func(rng *rand.Rand) func(int) *request {
			return func(int) *request {
				if rng.Intn(2) == 0 {
					return hot[rng.Intn(len(hot))]
				}
				return all[rng.Intn(len(all))]
			}
		}

	case wlTemporalWindow:
		p.store.Put(personnel(sz.emp, seed))
		reqs := windowRequests(pool, windowPool)
		p.sampled = reqs
		uniform(reqs)

	case wlScanJoin:
		emp := personnel(sz.scanEmp, seed)
		p.store.Put(emp)
		p.store.Put(refRelation(sz.ref, emp, pool))
		var reqs []*request
		for _, d := range []string{"Toys", "Shoes", "Books", "Tools", "Music"} {
			reqs = append(reqs,
				queryRequest(fmt.Sprintf(`SELECT WHEN DEPT = '%s' FROM EMP`, d), -1),
				queryRequest(fmt.Sprintf(`PROJECT NAME, DEPT FROM (SELECT WHEN DEPT = '%s' FROM EMP)`, d), -1))
		}
		// Salaries start at 25 000: the first four thresholds keep every
		// tuple whole, so the heaviest eighth of the mix is one class of
		// equal cost and p95 falls inside it, not between two texts.
		for i := 0; i < 20; i++ {
			s := 21000 + 1000*i
			if i >= 4 {
				s = 30000 + 2000*(i-4)
			}
			reqs = append(reqs, queryRequest(fmt.Sprintf(`SELECT WHEN SAL > %d FROM EMP`, s), -1))
		}
		reqs = append(reqs,
			queryRequest(`EMP JOIN REF ON DEPT = GRP`, -1),
			queryRequest(`REF JOIN EMP ON RNAME = NAME`, -1))
		p.sampled = reqs
		p.traced = tracedReads / 10
		uniform(reqs)

	case wlDurableMixed:
		p.durable = true
		p.store.Put(abRelation("A", sz.ab))
		p.store.Put(abRelation("B", sz.ab))
		p.store.Put(personnel(sz.durEmp, seed))
		slices := make([]*request, timeslicePool)
		for i := range slices {
			t := pool.Intn(historyLen - 5)
			slices[i] = queryRequest(fmt.Sprintf(`TIMESLICE EMP AT {[%d,%d]}`, t, t+4), -1)
		}
		p.sampled = slices
		reader = func(rng *rand.Rand) func(int) *request {
			return func(frontier int) *request {
				return durableRead(rng, frontier, sz.ab, slices)
			}
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}

	p.readers = generators
	if p.durable {
		p.readers-- // the last connection is the paced writer
	}
	p.reader = func(conn int) func(int) *request {
		return reader(rand.New(rand.NewSource(seqSeed(seed, name, conn))))
	}
	h := fnv.New64a()
	for i := 0; i < p.readers; i++ {
		next := p.reader(i)
		for j := 0; j < seqHashLen; j++ {
			h.Write(next(0).line)
		}
	}
	if p.durable {
		for g := 0; g*18 < seqHashLen; g++ {
			lines, _ := groupLines(g)
			for _, l := range lines {
				h.Write(l)
			}
		}
	}
	p.seqHash = h.Sum64()
	return p, nil
}

// durableRead draws durable_mixed's reader mix: 40 % torn-group probes
// at the writer's frontier (empty at every consistent cut), 40 % point
// lookups on preloaded A keys, 20 % TIMESLICE EMP from a fixed pool.
func durableRead(rng *rand.Rand, frontier, preloaded int, slices []*request) *request {
	switch draw := rng.Intn(10); {
	case draw < 4:
		k := groupKey(frontier, rng.Intn(groupTuples))
		x, y := "A", "B"
		if draw%2 == 1 {
			x, y = y, x
		}
		return queryRequest(fmt.Sprintf(
			`(SELECT WHEN K = '%s' FROM %s) MINUS (SELECT WHEN K = '%s' FROM %s)`, k, x, k, y), 0)
	case draw < 8:
		return queryRequest(fmt.Sprintf(`SELECT WHEN K = '%s' FROM A`, preloadKey(rng.Intn(preloaded))), 1)
	default:
		return slices[rng.Intn(len(slices))]
	}
}

// windowRequests builds temporal_window's pool: the paper's three
// lifespan operators, window widths 5/20/200 at 60/30/10 %, start
// uniform on the clock. The split is exact, not drawn, so the mix is the
// same on every seed. The widest tenth is TIMESLICE and SELECT only —
// WHEN of the same window renders one lifespan and costs a third — so
// the slowest tenth is one class and p95 falls in its middle.
func windowRequests(rng *rand.Rand, n int) []*request {
	reqs := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		w := 5
		switch j := (i / 3) % 10; {
		case j >= 9:
			w = 200
		case j >= 6:
			w = 20
		}
		t := rng.Intn(historyLen - w)
		s := 26000 + 1000*rng.Intn(10)
		during := fmt.Sprintf(`SELECT WHEN SAL > %d DURING {[%d,%d]} FROM EMP`, s, t, t+w-1)
		kind := i % 3
		if w == 200 {
			kind = (i + i/30) % 2
		}
		switch kind {
		case 0:
			reqs = append(reqs, queryRequest(fmt.Sprintf(`TIMESLICE EMP AT {[%d,%d]}`, t, t+w-1), -1))
		case 1:
			reqs = append(reqs, queryRequest(during, -1))
		default:
			reqs = append(reqs, queryRequest(`WHEN (`+during+`)`, -1))
		}
	}
	return reqs
}

// refRelation builds scan_join's REF as hrdm-bench's benchRef does:
// tuples keyed by existing employee names over their employment
// windows, GRP mostly unique with every 25th a real department, so both
// joins produce output.
func refRelation(n int, emp *core.Relation, rng *rand.Rand) *core.Relation {
	full := lifespan.Interval(0, historyLen-1)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "GRP", Domain: value.Strings, Lifespan: full},
	)
	ref := core.NewRelation(rs)
	_, vers := core.Pin(emp)
	emps := vers[0].Tuples()
	n = min(n, len(emps)/2)
	for _, i := range rng.Perm(len(emps))[:n] {
		et := emps[i]
		ls := et.Lifespan()
		c := ref.Cardinality()
		grp := fmt.Sprintf("G%05d", c)
		if c%25 == 0 {
			grp = []string{"Toys", "Shoes", "Books", "Tools", "Music"}[(c/25)%5]
		}
		b := core.NewTupleBuilder(rs, ls).
			Key("RNAME", value.String_(et.KeyValue("NAME").AsString())).
			SetConst("GRP", value.String_(grp))
		for _, iv := range ls.Intervals() {
			b.Set("BONUS", iv.Lo, iv.Hi, value.Int(int64(1000*rng.Intn(10))))
		}
		ref.MustInsert(b.MustBuild())
	}
	return ref
}

func abScheme(name string) *schema.Scheme {
	full := lifespan.Interval(0, abClock)
	return schema.MustNew(name, []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

func preloadKey(i int) string { return fmt.Sprintf("p%06d", i) }

// groupKey is the j-th key of the writer's g-th group; fixed width, so
// WAL bytes per user byte repeat exactly.
func groupKey(g, j int) string { return fmt.Sprintf("g%06d.%d", g, j) }

func abRelation(name string, n int) *core.Relation {
	s := abScheme(name)
	ts := make([]*core.Tuple, n)
	for i := range ts {
		ts[i] = core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
			Key("K", value.String_(preloadKey(i))).
			Set("V", 0, 9, value.Int(int64(i%10))).
			MustBuild()
	}
	r := core.NewRelation(s)
	if err := r.InsertBatch(ts); err != nil {
		panic(err) // keys are distinct by construction
	}
	return r
}

// tupleSpec is the text-format spec the writer stages for groupKey(g,j).
func tupleSpec(g, j int) string {
	lo := chronon.Time(10 * (g % 99))
	return fmt.Sprintf(`tuple {[%d,%d]}; K = "%s" @ {[%d,%d]}; V = %d @ {[%d,%d]}`,
		lo, lo+9, groupKey(g, j), lo, lo+9, j, lo, lo+9)
}

// groupLines is the 18 protocol lines of write group g, and the bytes
// of tuple specs among them (the user bytes of log_bytes_per_user_byte).
func groupLines(g int) (lines [][]byte, userBytes int) {
	lines = append(lines, opLine(map[string]string{"op": "begin_group"}))
	for _, rel := range []string{"A", "B"} {
		for j := 0; j < groupTuples; j++ {
			spec := tupleSpec(g, j)
			userBytes += len(spec)
			lines = append(lines, opLine(map[string]string{"op": "stage", "rel": rel, "tuple": spec}))
		}
	}
	return append(lines, opLine(map[string]string{"op": "commit"})), userBytes
}
