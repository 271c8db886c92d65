package engine

import (
	"fmt"
	"testing"
)

// BenchmarkRunCachedKeyEq times the cached-plan Query path end to end —
// the hot path the observability layer must not tax by more than ~3%.
func BenchmarkRunCachedKeyEq(b *testing.B) {
	st := goldenStore(b)
	q := `SELECT WHEN NAME = 'aaemp' FROM EMP`
	ResetPlanCache()
	s := sess(st)
	if _, err := s.Query(bg, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(bg, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ResetPlanCache()
}

// BenchmarkRunFreshKeyEq times Query over key lookups whose texts cycle
// through 4 096 literals — more than the plan cache holds texts — so
// every text is one the cache has not seen, but its shape is.
func BenchmarkRunFreshKeyEq(b *testing.B) {
	st := goldenStore(b)
	qs := make([]string, 4096)
	for i := range qs {
		qs[i] = fmt.Sprintf(`SELECT WHEN NAME = 'k%04d' FROM EMP`, i)
	}
	ResetPlanCache()
	s := sess(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(bg, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ResetPlanCache()
}
