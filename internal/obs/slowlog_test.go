package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSlowLogThresholdAndRing covers the gate, ring wraparound and
// newest-first paging.
func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(4)
	l.SetThreshold(10 * time.Millisecond)
	if l.Qualifies(9 * time.Millisecond) {
		t.Fatal("below-threshold query qualified")
	}
	if !l.Qualifies(10 * time.Millisecond) {
		t.Fatal("at-threshold query must qualify")
	}
	for i := 0; i < 7; i++ {
		l.Record(SlowQuery{Query: fmt.Sprintf("q%d", i), TotalNs: int64(i)})
	}
	if l.Recorded() != 7 {
		t.Fatalf("Recorded = %d, want 7", l.Recorded())
	}
	got := l.Last(10)
	if len(got) != 4 {
		t.Fatalf("ring kept %d entries, want 4", len(got))
	}
	for i, want := range []string{"q6", "q5", "q4", "q3"} {
		if got[i].Query != want {
			t.Fatalf("Last()[%d] = %s, want %s (newest first)", i, got[i].Query, want)
		}
	}
	if two := l.Last(2); len(two) != 2 || two[0].Query != "q6" {
		t.Fatalf("Last(2) = %v", two)
	}
	l.Clear()
	if len(l.Last(10)) != 0 || l.Recorded() != 0 {
		t.Fatal("Clear left entries")
	}
	if l.Threshold() != 10*time.Millisecond {
		t.Fatal("Clear reset the threshold")
	}
}

// TestSlowLogConcurrent races recorders against readers under -race.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Record(SlowQuery{Query: fmt.Sprintf("w%d-%d", w, i), TotalNs: int64(i)})
				if i%256 == 0 {
					_ = l.Last(8)
					l.SetThreshold(time.Duration(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Recorded() != 8000 {
		t.Fatalf("Recorded = %d, want 8000", l.Recorded())
	}
}

// TestSpanStages verifies stage attribution and accumulation across
// repeated marks (the plan/pin retry pattern).
func TestSpanStages(t *testing.T) {
	// time.Sleep sleeps at least its argument, so each stage is bounded
	// below by its sleeps and never above: a loaded host only
	// lengthens them. Plan's two sleeps are each longer than parse's,
	// and a Mark that overwrote its stage instead of accumulating would
	// keep only the second of them.
	const parseSleep, planSleep1, planSleep2 = time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond
	sp := Begin()
	time.Sleep(parseSleep)
	sp.Mark(StageParse)
	time.Sleep(planSleep1)
	sp.Mark(StagePlan)
	time.Sleep(planSleep2)
	sp.Mark(StagePlan) // retry accumulates into the same stage
	if sp.StageDur(StageParse) < parseSleep || sp.StageDur(StagePlan) < planSleep1+planSleep2 {
		t.Fatalf("stage attribution off: parse=%v (want ≥ %v) plan=%v (want ≥ %v)",
			sp.StageDur(StageParse), parseSleep, sp.StageDur(StagePlan), planSleep1+planSleep2)
	}
	var sum time.Duration
	for _, st := range sp.Stages() {
		sum += time.Duration(st.Ns)
	}
	if sum != sp.Total() {
		t.Fatalf("stage sum %v != total %v", sum, sp.Total())
	}
	if sp.StageDur(StageExecute) != 0 {
		t.Fatal("unmarked stage must be zero")
	}
	for st := Stage(0); st < NumStages; st++ {
		if StageName(st) == "" {
			t.Fatalf("stage %d has no name", st)
		}
	}
}
