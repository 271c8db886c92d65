package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// Microbenchmarks of core primitives that no experiment table times.
// The operator-level timings (set operators, π, σ, TIME-SLICE, the
// joins, WHEN, the §5 rewrites) are experiments E1–E12 in
// internal/experiment, printed by `go run ./cmd/hrdm-bench`.

func personnel(n, hist, change int, seed int64) *core.Relation {
	return workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: hist, ChangeEvery: change,
		ReincarnationProb: 0.3, Seed: seed,
	})
}

// deptRel is DEPTREL(DNAME, FLOOR) over the workload's department names.
func deptRel() *core.Relation {
	full := lifespan.Interval(0, 199)
	s := schema.MustNew("DEPTREL", []string{"DNAME"},
		schema.Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	r := core.NewRelation(s)
	for i, n := range []string{"Toys", "Shoes", "Books", "Tools", "Music"} {
		r.MustInsert(core.NewTupleBuilder(s, full).
			Key("DNAME", value.String_(n)).
			SetConst("FLOOR", value.Int(int64(i+1))).
			MustBuild())
	}
	return r
}

// BenchmarkVLS measures vls(t,A,R) = t.l ∩ ALS(A,R) (Figures 7/8), the
// innermost primitive of every operator.
func BenchmarkVLS(b *testing.B) {
	world := personnel(100, 400, 20, 1)
	s := world.Scheme()
	tuples := world.Tuples()
	i := 0
	for b.Loop() {
		tuples[i%len(tuples)].VLS(s, "SAL")
		i++
	}
}

// BenchmarkMaterialize measures the Figure 9 representation→model lift.
func BenchmarkMaterialize(b *testing.B) {
	world := personnel(500, 200, 20, 15)
	for b.Loop() {
		if _, err := core.Materialize(world); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoalescing ablates the interval-coalesced
// representation level: the same 200-chronon history is generated with a
// value change every 1 chronon (steps ≈ chronons — the degenerate
// pointwise representation) versus every 50 chronons (a handful of steps
// per tuple). Operator cost must track steps, not chronons; the gap
// between the two rows is what the representation level buys.
func BenchmarkAblationCoalescing(b *testing.B) {
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(35000)}
	for _, change := range []int{1, 50} {
		world := personnel(500, 200, change, 13)
		steps := core.CoalesceValueLifespans(world)["SAL"]
		b.Run(fmt.Sprintf("changeEvery=%d/steps=%d", change, steps), func(b *testing.B) {
			for b.Loop() {
				if _, err := core.SelectWhen(world, p, lifespan.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOuterVsInnerJoin compares the §5 union-lifespan (outer) join
// against the intersection (inner) join — the null-handling tradeoff the
// paper's closing discussion weighs.
func BenchmarkOuterVsInnerJoin(b *testing.B) {
	emp := personnel(400, 200, 20, 14)
	dept := deptRel()
	b.Run("Inner", func(b *testing.B) {
		for b.Loop() {
			if _, err := core.EquiJoin(emp, dept, "DEPT", "DNAME"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Outer", func(b *testing.B) {
		for b.Loop() {
			if _, err := core.EquiJoinOuter(emp, dept, "DEPT", "DNAME"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
