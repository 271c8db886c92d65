package engine

import "testing"

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
