package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/rel"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// Table is one experiment's result: a titled grid with an explanatory
// note, printable as aligned text.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	return b.String()
}

// timeIt runs f repeatedly for at least minReps and returns the mean
// duration. Experiments prioritize stable shape over benchmark-grade
// rigor; bench_test.go has the testing.B versions.
func timeIt(minReps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < minReps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(minReps)
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

func personnel(n, hist, change int, seed int64) *core.Relation {
	return workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: hist, ChangeEvery: change,
		ReincarnationProb: 0.3, Seed: seed,
	})
}

// E1SetOps measures the plain and object-based set operators against
// relation size (§4.1).
func E1SetOps() Table {
	t := Table{
		ID:     "E1",
		Title:  "set-theoretic operators vs relation size (history 200, change every 20)",
		Header: []string{"objects", "∪o", "∩o", "−o", "∪(disjoint)", "−(plain)"},
		Note:   "object-based variants pay a per-key merge; plain variants reject or pass tuples whole",
	}
	for _, n := range []int{100, 400, 1600} {
		world := personnel(n, 200, 20, 1)
		a, _ := core.TimesliceStatic(world, lifespan.Interval(0, 120))
		b, _ := core.TimesliceStatic(world, lifespan.Interval(80, 199))
		// Disjoint-key operands for the plain union.
		left, _ := core.TimesliceStatic(world, lifespan.Interval(0, 99))
		reps := 3
		row := []string{fmt.Sprint(n)}
		row = append(row, dur(timeIt(reps, func() { _, _ = core.UnionMerge(a, b) })))
		row = append(row, dur(timeIt(reps, func() { _, _ = core.IntersectMerge(a, b) })))
		row = append(row, dur(timeIt(reps, func() { _, _ = core.DiffMerge(a, b) })))
		empty := core.NewRelation(world.Scheme())
		row = append(row, dur(timeIt(reps, func() { _, _ = core.Union(left, empty) })))
		row = append(row, dur(timeIt(reps, func() { _, _ = core.Diff(a, b) })))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// E2Project measures PROJECT against the number of retained attributes
// (§4.2, the attribute dimension of Figure 10).
func E2Project() Table {
	t := Table{
		ID:     "E2",
		Title:  "PROJECT vs retained attributes (1000 objects)",
		Header: []string{"attributes kept", "time", "result tuples"},
		Note:   "projection keeping the key is per-tuple copying; dropping the key adds merge work",
	}
	world := personnel(1000, 200, 20, 2)
	cases := [][]string{
		{"NAME", "SAL", "DEPT"},
		{"NAME", "SAL"},
		{"NAME"},
		{"DEPT"}, // drops the key: merge path
	}
	for _, attrs := range cases {
		var out *core.Relation
		d := timeIt(3, func() { out, _ = core.Project(world, attrs...) })
		t.Rows = append(t.Rows, []string{
			strings.Join(attrs, ","), dur(d), fmt.Sprint(out.Cardinality()),
		})
	}
	return t
}

// E3Select measures both SELECT flavors and quantifiers against history
// length (§4.3, the value dimension).
func E3Select() Table {
	t := Table{
		ID:     "E3",
		Title:  "SELECT flavors vs history length (500 objects)",
		Header: []string{"history", "σ-IF ∃", "σ-IF ∀", "σ-WHEN", "WHEN tuples"},
		Note:   "σ-WHEN builds restricted tuples; σ-IF only tests and passes whole tuples",
	}
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(35000)}
	for _, hist := range []int{100, 400, 1600} {
		world := personnel(500, hist, 20, 3)
		reps := 3
		var whenOut *core.Relation
		rIf := timeIt(reps, func() { _, _ = core.SelectIf(world, p, core.Exists, lifespan.All()) })
		rAll := timeIt(reps, func() { _, _ = core.SelectIf(world, p, core.ForAll, lifespan.All()) })
		rWhen := timeIt(reps, func() { whenOut, _ = core.SelectWhen(world, p, lifespan.All()) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(hist), dur(rIf), dur(rAll), dur(rWhen), fmt.Sprint(whenOut.Cardinality()),
		})
	}
	return t
}

// E4Timeslice measures static TIME-SLICE against slice width and the
// dynamic TIME-SLICE (§4.4, the temporal dimension).
func E4Timeslice() Table {
	t := Table{
		ID:     "E4",
		Title:  "TIME-SLICE vs slice width (1000 objects, history 400)",
		Header: []string{"slice width", "static slice", "surviving tuples"},
		Note:   "cost tracks surviving data, not the width parameter itself; dynamic slice measured separately",
	}
	world := personnel(1000, 400, 20, 4)
	for _, w := range []int{10, 50, 200, 400} {
		L := lifespan.Interval(0, chronon.Time(w-1))
		var out *core.Relation
		d := timeIt(3, func() { out, _ = core.TimesliceStatic(world, L) })
		t.Rows = append(t.Rows, []string{fmt.Sprint(w), dur(d), fmt.Sprint(out.Cardinality())})
	}
	stock := workload.Stock(workload.StockConfig{NumStocks: 500, HistoryLen: 400, VolumeGapLo: 0.4, VolumeGapHi: 0.7, Seed: 4})
	d := timeIt(3, func() { _, _ = core.TimesliceDynamic(stock, "EX_DIV") })
	t.Rows = append(t.Rows, []string{"dynamic(EX_DIV)", dur(d), fmt.Sprint(stock.Cardinality())})
	return t
}

// E5UnionVsMerge contrasts plain union with merge-union on the Figure 11
// scenario: operands holding different periods of the same objects.
func E5UnionVsMerge() Table {
	t := Table{
		ID:     "E5",
		Title:  "Figure 11: plain ∪ vs object-based ∪o (overlapping objects)",
		Header: []string{"objects", "∪ outcome", "∪o tuples", "∪o time"},
		Note:   "plain ∪ on split histories violates the key condition (duplicated objects) and is rejected; ∪o merges them",
	}
	for _, n := range []int{100, 1000} {
		world := personnel(n, 200, 20, 5)
		a, _ := core.TimesliceStatic(world, lifespan.Interval(0, 120))
		b, _ := core.TimesliceStatic(world, lifespan.Interval(80, 199))
		_, err := core.Union(a, b)
		outcome := "ok"
		if err != nil {
			outcome = "rejected (duplicate objects)"
		}
		var u *core.Relation
		d := timeIt(3, func() { u, _ = core.UnionMerge(a, b) })
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), outcome, fmt.Sprint(u.Cardinality()), dur(d)})
	}
	return t
}

// E6Joins measures the join family against relation size (§4.6).
func E6Joins() Table {
	t := Table{
		ID:     "E6",
		Title:  "JOIN family vs size (emp ⋈ dept on DEPT)",
		Header: []string{"employees", "equijoin", "θ-join(>)", "natural join", "join tuples"},
		Note:   "nested-loop joins: cost grows with |r1|·|r2|; lifespan intersection prunes pairs",
	}
	dept := deptRelation()
	for _, n := range []int{100, 400, 1600} {
		emp := personnel(n, 200, 20, 6)
		reps := 2
		var out *core.Relation
		eq := timeIt(reps, func() { out, _ = core.EquiJoin(emp, dept, "DEPT", "DNAME") })
		th := timeIt(reps, func() { _, _ = core.ThetaJoin(emp, dept, "SAL", value.GT, "FLOOR") })
		mgr := mgrRelation(n)
		nj := timeIt(reps, func() { _, _ = core.NaturalJoin(emp, mgr) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), dur(eq), dur(th), dur(nj), fmt.Sprint(out.Cardinality()),
		})
	}
	return t
}

// deptRelation builds a DEPTREL with the workload department names.
func deptRelation() *core.Relation {
	full := lifespan.Interval(0, 199)
	s := mustDeptScheme(full)
	r := core.NewRelation(s)
	for i, n := range []string{"Toys", "Shoes", "Books", "Tools", "Music"} {
		r.MustInsert(core.NewTupleBuilder(s, full).
			Key("DNAME", value.String_(n)).
			Set("FLOOR", 0, 199, value.Int(int64(i+1))).
			MustBuild())
	}
	return r
}

// mgrRelation builds a MGR(NAME, BONUS) sharing NAME with EMP.
func mgrRelation(n int) *core.Relation {
	full := lifespan.Interval(0, 199)
	s := mustMgrScheme(full)
	r := core.NewRelation(s)
	for i := 0; i < n; i += 5 {
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 150)).
			Key("NAME", value.String_(fmt.Sprintf("emp%04d", i))).
			Set("BONUS", 0, 150, value.Int(int64(100*i))).
			MustBuild())
	}
	return r
}

// E7TimeJoin measures TIME-JOIN on stock data against size.
func E7TimeJoin() Table {
	t := Table{
		ID:     "E7",
		Title:  "TIME-JOIN (stock [@EX_DIV] dept) vs size",
		Header: []string{"stocks", "time-join", "result tuples"},
		Note:   "each left tuple contributes its EX_DIV image; pairs survive on image ∩ lifespans",
	}
	dept := deptRelation()
	for _, n := range []int{100, 400, 1600} {
		stock := workload.Stock(workload.StockConfig{NumStocks: n, HistoryLen: 200, VolumeGapLo: 0.4, VolumeGapHi: 0.7, Seed: 7})
		var out *core.Relation
		d := timeIt(2, func() { out, _ = core.TimeJoin(stock, dept, "EX_DIV") })
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), dur(d), fmt.Sprint(out.Cardinality())})
	}
	return t
}

// E8When measures WHEN and the WHEN∘SELECT-WHEN∘TIME-SLICE pipeline
// (§4.5).
func E8When() Table {
	t := Table{
		ID:     "E8",
		Title:  "WHEN and the Ω∘σ-WHEN pipeline (history 200)",
		Header: []string{"objects", "Ω(r)", "T_{Ω(σ-WHEN(r))}(r)"},
		Note:   "WHEN is a union over tuple lifespans; the pipeline answers 'slice r to when P held'",
	}
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}
	for _, n := range []int{100, 1000} {
		world := personnel(n, 200, 20, 8)
		w := timeIt(5, func() { _ = core.When(world) })
		pipe := timeIt(3, func() {
			sel, _ := core.SelectWhen(world, p, lifespan.All())
			_, _ = core.TimesliceStatic(world, core.When(sel))
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), dur(w), dur(pipe)})
	}
	return t
}

// E9Reduction measures the consistent-extension overhead: classical ops
// vs HRDM ops on lifted static relations at T = {now} (§5).
func E9Reduction() Table {
	t := Table{
		ID:     "E9",
		Title:  "consistent extension: classical vs HRDM at T={now} (1000 tuples)",
		Header: []string{"operator", "classical", "HRDM@now", "ratio"},
		Note:   "HRDM pays per-attribute function machinery even for single-instant data; equivalence of results is property-tested in internal/core",
	}
	sr, hr := liftedPair(1000)
	sr2, hr2 := liftedPair(1000)
	type cs struct {
		name      string
		classical func()
		historic  func()
	}
	pred := core.Predicate{Attr: "A", Theta: value.GE, Const: value.Int(500)}
	cases := []cs{
		{"select", func() { _, _ = rel.Select(sr, "A", value.GE, value.Int(500), "") },
			func() { _, _ = core.SelectWhen(hr, pred, lifespan.All()) }},
		{"project", func() { _, _ = rel.Project(sr, "A") },
			func() { _, _ = core.Project(hr, "A") }},
		{"union", func() { _, _ = rel.Union(sr, sr2) },
			func() { _, _ = core.UnionMerge(hr, hr2) }},
	}
	for _, c := range cases {
		cd := timeIt(5, c.classical)
		hd := timeIt(5, c.historic)
		ratio := float64(hd) / float64(cd)
		t.Rows = append(t.Rows, []string{c.name, dur(cd), dur(hd), fmt.Sprintf("%.1fx", ratio)})
	}
	return t
}

// liftedPair builds a random classical relation and its HRDM lifting at
// {now}, with n tuples over two int attributes.
func liftedPair(n int) (*rel.Relation, *core.Relation) {
	doms := []value.Domain{value.Ints, value.Ints}
	rs, err := rel.NewScheme("R", []string{"K"}, []string{"K", "A"}, doms)
	if err != nil {
		panic(err)
	}
	hs := mustLiftScheme()
	sr := rel.NewRelation(rs)
	hr := core.NewRelation(hs)
	for i := 0; i < n; i++ {
		k, a := value.Int(int64(i)), value.Int(int64((i*7919)%1000))
		sr.MustInsert(rel.Tuple{k, a})
		hr.MustInsert(core.NewTupleBuilder(hs, lifespan.Point(0)).
			Key("K", k).Key("A", a).MustBuild())
	}
	return sr, hr
}

// E10Storage reports storage bytes for the three representations across
// schema width and change heterogeneity (§2's granularity tradeoff).
//
// Two workload families expose the crossover. "narrow": the 3-attribute
// personnel scheme whose attributes change in lockstep — there tuple
// timestamping can even undercut HRDM, since HRDM pays one interval per
// attribute step while a lockstep change costs the tuple model a single
// narrow version. "wide/N": N+1-attribute schemes whose attributes change
// at rates spread over a factor of 2^N — the paper's motivating shape,
// where one hot attribute forces the tuple model to re-store the whole
// wide tuple and HRDM wins increasingly with width. The cube pays per
// object-chronon regardless.
func E10Storage() Table {
	t := Table{
		ID:     "E10",
		Title:  "storage bytes: HRDM vs tuple-timestamping vs cube",
		Header: []string{"workload", "HRDM", "tuplestamp", "cube", "ts/HRDM", "cube/HRDM"},
		Note:   "HRDM stores one entry per attribute change; tuplestamp one full tuple per any change; cube one row per object-chronon",
	}
	add := func(label string, world *core.Relation, hist int) {
		hb := storage.SizeBytes(world)
		ts, err := workload.ToTupleStamp(world)
		if err != nil {
			panic(err)
		}
		cb, err := workload.ToCube(world, chronon.NewInterval(0, chronon.Time(hist-1)))
		if err != nil {
			panic(err)
		}
		tsb, cbb := ts.SizeBytes(), cb.SizeBytes()
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(hb), fmt.Sprint(tsb), fmt.Sprint(cbb),
			fmt.Sprintf("%.2fx", float64(tsb)/float64(hb)),
			fmt.Sprintf("%.2fx", float64(cbb)/float64(hb)),
		})
	}
	for _, change := range []int{5, 20, 80} {
		add(fmt.Sprintf("narrow chg=%d", change), personnel(200, 400, change, 10), 400)
	}
	for _, width := range []int{4, 8, 16} {
		cfg := workload.WideConfig{NumObjects: 100, HistoryLen: 400, NumAttrs: width, BaseChange: 5, Seed: 21}
		add(fmt.Sprintf("wide/%d", width), workload.Wide(cfg), 400)
	}
	return t
}

// E11Queries measures the three motivating queries on the three
// representations.
func E11Queries() Table {
	t := Table{
		ID:     "E11",
		Title:  "query cost by representation (500 objects, history 400)",
		Header: []string{"query", "HRDM", "tuplestamp", "cube"},
		Note:   "key-history: HRDM/tuplestamp index directly; cube scans its dense timeline. when-P: cube scans every chronon",
	}
	hist := 400
	world := personnel(500, hist, 20, 11)
	ts, err := workload.ToTupleStamp(world)
	if err != nil {
		panic(err)
	}
	cb, err := workload.ToCube(world, chronon.NewInterval(0, chronon.Time(hist-1)))
	if err != nil {
		panic(err)
	}
	probe := value.String_("emp0042")
	reps := 20
	// Key history.
	h1 := timeIt(reps, func() { _, _ = world.Lookup(probe.String()) })
	t1 := timeIt(reps, func() { _ = ts.KeyHistory(probe) })
	c1 := timeIt(reps, func() { _ = cb.KeyHistory(probe) })
	t.Rows = append(t.Rows, []string{"key history", dur(h1), dur(t1), dur(c1)})
	// Snapshot at t.
	at := chronon.Time(hist / 2)
	h2 := timeIt(reps, func() { _, _ = core.Snapshot(world, at) })
	t2 := timeIt(reps, func() { _ = ts.SnapshotAt(at) })
	c2 := timeIt(reps, func() { _ = cb.SnapshotAt(at) })
	t.Rows = append(t.Rows, []string{"snapshot@t", dur(h2), dur(t2), dur(c2)})
	// When did P hold.
	pred := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}
	h3 := timeIt(reps, func() {
		sel, _ := core.SelectWhen(world, pred, lifespan.All())
		_ = core.When(sel)
	})
	t3 := timeIt(reps, func() { _, _ = ts.When("SAL", value.GE, value.Int(40000)) })
	c3 := timeIt(reps, func() { _, _ = cb.When("SAL", value.GE, value.Int(40000)) })
	t.Rows = append(t.Rows, []string{"when SAL>=40000", dur(h3), dur(t3), dur(c3)})
	return t
}

// E12Laws measures both sides of two §5 rewrites. The slice/σ-WHEN
// order is a law (internal/core TestLawTimesliceCommutesWithSelect).
// σ-WHEN below ∪o is not: it holds only when the operands agree on
// every shared object (TestLawSelectWhenDistributesOverSetOps checks it
// for slices of one relation, the case measured here), and fails when
// they contradict, where r1 ∪o r2 is undefined but σr1 ∪o σr2 may not
// be; its σ-IF form fails even for agreeing operands
// (TestNotALawSelectIfOverUnionMerge).
func E12Laws() Table {
	t := Table{
		ID:     "E12",
		Title:  "algebraic rewrites: cost of each side (1000 objects)",
		Header: []string{"law", "lhs", "rhs"},
		Note:   "σ-before-slice vs slice-before-σ: filtering first shrinks the slice input, and vice versa",
	}
	world := personnel(1000, 200, 20, 12)
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}
	L := lifespan.Interval(50, 149)
	lhs := timeIt(3, func() {
		s, _ := core.SelectWhen(world, p, lifespan.All())
		_, _ = core.TimesliceStatic(s, L)
	})
	rhs := timeIt(3, func() {
		s, _ := core.TimesliceStatic(world, L)
		_, _ = core.SelectWhen(s, p, lifespan.All())
	})
	t.Rows = append(t.Rows, []string{"T_L∘σ = σ∘T_L", dur(lhs), dur(rhs)})

	a, _ := core.TimesliceStatic(world, lifespan.Interval(0, 120))
	b, _ := core.TimesliceStatic(world, lifespan.Interval(80, 199))
	lhs2 := timeIt(3, func() {
		u, _ := core.UnionMerge(a, b)
		_, _ = core.SelectWhen(u, p, lifespan.All())
	})
	rhs2 := timeIt(3, func() {
		s1, _ := core.SelectWhen(a, p, lifespan.All())
		s2, _ := core.SelectWhen(b, p, lifespan.All())
		_, _ = core.UnionMerge(s1, s2)
	})
	t.Rows = append(t.Rows, []string{"σ(r1 ∪o r2) = σr1 ∪o σr2 if operands agree on every shared object (here both are slices of one relation)", dur(lhs2), dur(rhs2)})
	return t
}

// All runs every experiment in order.
func All() []Table {
	return []Table{
		E1SetOps(), E2Project(), E3Select(), E4Timeslice(), E5UnionVsMerge(),
		E6Joins(), E7TimeJoin(), E8When(), E9Reduction(), E10Storage(),
		E11Queries(), E12Laws(),
	}
}
