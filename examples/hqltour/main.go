// HQL tour: every operator of the historical algebra exercised through
// the textual query language, against an in-memory personnel database.
// Run it to see the full surface of the language in one sitting.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func main() {
	sess := engine.OpenDB(buildStore()).NewSession()
	queries := []struct {
		caption string
		q       string
	}{
		{"the paper's signature query (composed σ-WHEN)",
			`SELECT WHEN SAL = 30000 FROM (SELECT WHEN NAME = "John" FROM EMP)`},
		{"SELECT-IF with universal quantification over a scoped lifespan",
			`SELECT IF SAL >= 31000 FORALL DURING {[5,9]} FROM EMP`},
		{"PROJECT along the attribute dimension",
			`PROJECT NAME, DEPT FROM EMP`},
		{"static TIME-SLICE with lifespan set algebra in the parameter",
			`TIMESLICE EMP AT {[0,9]} MINUS {[3,7]}`},
		{"WHEN as a first-class lifespan result",
			`WHEN (SELECT WHEN SAL >= 34000 FROM EMP)`},
		{"WHEN feeding TIME-SLICE (the §4.5 composition)",
			`TIMESLICE EMP AT WHEN (SELECT WHEN SAL >= 34000 FROM EMP)`},
		{"equijoin over histories",
			`EMP JOIN DEPTREL ON DEPT = DNAME`},
		{"outer (union-lifespan) join — §5's null-bearing variant",
			`EMP OUTERJOIN DEPTREL ON DEPT = DNAME`},
		{"self θ-join via RENAME: who out-earned whom, when",
			`EMP JOIN (RENAME EMP AS b) ON SAL > b.SAL`},
		{"dynamic TIME-SLICE over a time-valued attribute",
			`TIMESLICE SHIP BY SHIPDATE`},
		{"TIME-JOIN: shipments with the departments current at ship time",
			`SHIP TIMEJOIN DEPTREL ON SHIPDATE`},
		{"object-based set algebra: reassemble split histories",
			`(TIMESLICE EMP AT {[0,8]}) UNIONMERGE (TIMESLICE EMP AT {[6,19]})`},
		{"object-based difference: Mary's post-[0,9] history",
			`EMP MINUSMERGE (TIMESLICE EMP AT {[0,9]})`},
		{"MATERIALIZE: apply interpolators (identity on total data)",
			`MATERIALIZE EMP`},
		{"SNAPSHOT: the classical relation at time 7",
			`SNAPSHOT EMP AT 7`},
	}
	for i, qc := range queries {
		fmt.Printf("-- %d. %s\nhrdm> %s\n", i+1, qc.caption, qc.q)
		res, err := sess.Query(context.Background(), qc.q)
		if err != nil {
			panic(fmt.Sprintf("query %d failed: %v", i+1, err))
		}
		out := res.String()
		if lines := strings.Split(out, "\n"); len(lines) > 6 {
			out = strings.Join(lines[:6], "\n") + "\n  …"
		}
		fmt.Println(out)
		fmt.Println()
	}
}

func buildStore() *storage.Store {
	full := lifespan.Interval(0, 99)
	es := schema.MustNew("EMP", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full, Interp: "step"},
	)
	emp := core.NewRelation(es)
	emp.MustInsert(core.NewTupleBuilder(es, lifespan.Interval(0, 9)).
		Key("NAME", value.String_("John")).
		Set("SAL", 0, 4, value.Int(30000)).
		Set("SAL", 5, 9, value.Int(34000)).
		Set("DEPT", 0, 9, value.String_("Toys")).
		MustBuild())
	emp.MustInsert(core.NewTupleBuilder(es, lifespan.Interval(3, 19)).
		Key("NAME", value.String_("Mary")).
		Set("SAL", 3, 19, value.Int(40000)).
		Set("DEPT", 3, 9, value.String_("Shoes")).
		Set("DEPT", 10, 19, value.String_("Books")).
		MustBuild())
	emp.MustInsert(core.NewTupleBuilder(es, lifespan.MustParse("{[0,3],[8,14]}")).
		Key("NAME", value.String_("Ahmed")).
		Set("SAL", 0, 3, value.Int(30000)).
		Set("SAL", 8, 14, value.Int(31000)).
		Set("DEPT", 0, 3, value.String_("Toys")).
		Set("DEPT", 8, 14, value.String_("Books")).
		MustBuild())

	ds := schema.MustNew("DEPTREL", []string{"DNAME"},
		schema.Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	dept := core.NewRelation(ds)
	for i, n := range []string{"Toys", "Shoes", "Books"} {
		dept.MustInsert(core.NewTupleBuilder(ds, lifespan.Interval(0, 19)).
			Key("DNAME", value.String_(n)).
			Set("FLOOR", 0, 19, value.Int(int64(i+1))).
			MustBuild())
	}

	ss := schema.MustNew("SHIP", []string{"ID"},
		schema.Attribute{Name: "ID", Domain: value.Ints, Lifespan: full},
		schema.Attribute{Name: "SHIPDATE", Domain: value.Times, Lifespan: full},
	)
	ship := core.NewRelation(ss)
	ship.MustInsert(core.NewTupleBuilder(ss, lifespan.Interval(0, 19)).
		Key("ID", value.Int(1)).
		Set("SHIPDATE", 0, 9, value.TimeVal(7)).
		Set("SHIPDATE", 10, 19, value.TimeVal(12)).
		MustBuild())

	st := storage.NewStore()
	st.Put(emp)
	st.Put(dept)
	st.Put(ship)
	return st
}
