package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// BenchmarkParallelDegree runs scan, select and join plans at worker
// degrees 1, 2, 4 and 8 over an 8 000-tuple EMP of short employments
// scattered over a long clock. The threshold is lowered to n/8, so
// every plan partitions (16 chunks) and the w1 rows time the same
// partitioned plan run inline: the ratios isolate the worker pool. Read
// them against the host's CPU count — with fewer CPUs than workers the
// higher degrees measure coordination, not speed-up.
func BenchmarkParallelDegree(b *testing.B) {
	const n = 8000
	lowerParallelThreshold(b, n/8)
	st := storage.NewStore()
	st.Put(workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 31,
	}))
	st.Put(groupRef(n / 16))
	s := sess(st)
	for _, o := range []struct{ name, q string }{
		// No equality conjunct and no DURING window, so both selects are
		// filters over the base scan. The join streams EMP: REF.GRP is
		// near-unique, so probing its buckets beats streaming REF into
		// EMP's five fat DEPT buckets.
		{"scan", `SELECT WHEN SAL >= 0 FROM EMP`},
		{"select", `SELECT WHEN SAL > 30000 FROM EMP`},
		{"join", `EMP JOIN REF ON DEPT = GRP`},
	} {
		plan, err := s.Explain(o.q)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(plan, "parallel") {
			b.Fatalf("%s: plan is not parallel:\n%s", o.q, plan)
		}
		e, err := hql.Parse(o.q)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			ctx := WithWorkers(context.Background(), w)
			b.Run(fmt.Sprintf("%s/w%d", o.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := s.Eval(ctx, e); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// groupRef builds REF(RNAME, BONUS, GRP) with n tuples over every 16th
// employee name. GRP is a synthetic group name except on every 100th
// tuple, which carries a department, so EMP JOIN REF ON DEPT = GRP has
// output.
func groupRef(n int) *core.Relation {
	full := lifespan.Interval(0, 99999)
	rs := schema.MustNew("REF", []string{"RNAME"},
		schema.Attribute{Name: "RNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "GRP", Domain: value.Strings, Lifespan: full},
	)
	ref := core.NewRelation(rs)
	for i := 0; i < n; i++ {
		grp := fmt.Sprintf("G%05d", i)
		if i%100 == 0 {
			grp = []string{"Toys", "Shoes", "Books", "Tools", "Music"}[i/100%5]
		}
		ref.MustInsert(core.NewTupleBuilder(rs, full).
			Key("RNAME", value.String_(fmt.Sprintf("emp%04d", 16*i))).
			SetConst("BONUS", value.Int(int64(1000*(i%10)))).
			SetConst("GRP", value.String_(grp)).
			MustBuild())
	}
	return ref
}

// BenchmarkBulkLoad loads 4 000 tuples into a store-registered relation
// whose interval, key and DEPT indexes are already built, either one
// Insert at a time (4 000 publications, notifications and single-tuple
// index overlays with their compactions) or as one InsertBatch (one
// publication, one coalesced index merge). Tuple construction and the
// fresh relation of each op are outside the timed region.
func BenchmarkBulkLoad(b *testing.B) {
	src := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 4000, HistoryLen: 100000, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: 40, Seed: 99,
	})
	_, vers := core.Pin(src)
	tuples := vers[0].Tuples()
	for _, v := range []struct {
		name string
		load func(dst *core.Relation) error
	}{
		{"per_tuple", func(dst *core.Relation) error {
			for _, t := range tuples {
				if err := dst.Insert(t); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch", func(dst *core.Relation) error { return dst.InsertBatch(tuples) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				dst := core.NewRelation(src.Scheme())
				st := storage.NewStore()
				st.Put(dst)
				st.RebuildIndexes()
				Indexes(dst).Attr("DEPT")
				b.StartTimer()
				if err := v.load(dst); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				invalidateIndexes(dst)
				b.StartTimer()
			}
		})
	}
}
