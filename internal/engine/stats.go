package engine

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// RelStats is the per-relation statistics object the planner costs
// with: cardinality and lifespan geometry derived from the interval
// index. It is collected lazily into the relation's index set beside
// the indexes it derives from and invalidated by the same change
// notifications, so estimates track the live relation without a
// separate ANALYZE step.
type RelStats struct {
	Rows    int              // tuples
	Entries int              // lifespan intervals (≥ Rows under reincarnation)
	Span    chronon.Interval // bounding interval of every indexed lifespan
	SpanLen float64          // length of Span in chronons
	AvgLen  float64          // mean covered chronons per tuple
	Density float64          // AvgLen / SpanLen: fraction of the span a tuple covers
}

// String renders the statistics for EXPLAIN output.
func (s RelStats) String() string {
	return fmt.Sprintf("rows=%d intervals=%d span=[%s,%s] density=%.3f",
		s.Rows, s.Entries, s.Span.Lo, s.Span.Hi, s.Density)
}

// AttrStats is the per-attribute statistics slice derived from the
// attribute hash index: how many tuples hold a constant value (and how
// many distinct constants), vary over time, or lack the attribute
// entirely.
type AttrStats struct {
	Rows     int
	Distinct int // distinct constant values
	Varying  int // tuples whose value changes over time
	Absent   int // tuples with the attribute nowhere defined
}

// String renders the statistics for EXPLAIN output.
func (as AttrStats) String() string {
	return fmt.Sprintf("distinct=%d varying=%d absent=%d of %d",
		as.Distinct, as.Varying, as.Absent, as.Rows)
}

// EqMatches estimates how many tuples an `attr = const` equality can
// match: one average constant bucket plus the whole varying overflow
// (any time-varying value may pass through the constant).
func (as AttrStats) EqMatches() float64 {
	constant := float64(as.Rows - as.Varying - as.Absent)
	m := float64(as.Varying)
	if as.Distinct > 0 {
		m += constant / float64(as.Distinct)
	}
	return m
}

// EqSelectivity is EqMatches as a fraction of the relation.
func (as AttrStats) EqSelectivity() float64 {
	if as.Rows == 0 {
		return 0
	}
	return clamp01(as.EqMatches() / float64(as.Rows))
}

// Stats returns the relation's statistics object, computing it on first
// use (building the interval index if needed) and caching it until the
// next mutation.
func (x *RelIndexes) Stats() RelStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	ts := x.freshSnapshotLocked()
	if x.stats == nil {
		if x.interval == nil {
			x.interval = newIntervalIndexFrom(ts)
		}
		covered, span := x.interval.Geometry()
		s := &RelStats{
			Rows:    x.interval.Tuples(),
			Entries: x.interval.Entries(),
			Span:    span,
		}
		if s.Rows > 0 {
			s.SpanLen = ivLen(span)
			s.AvgLen = covered / float64(s.Rows)
			if s.SpanLen > 0 {
				s.Density = clamp01(s.AvgLen / s.SpanLen)
			}
		}
		x.stats = s
	}
	return *x.stats
}

// AttrStatsFor returns the named attribute's statistics, building (and
// caching) its hash index on first use — the same lazy amortization as
// any index warm-up.
func (x *RelIndexes) AttrStatsFor(name string) AttrStats {
	return x.Attr(name).Stats()
}

// AttrStatsIfBuilt returns the named attribute's statistics only when
// its hash index already exists — the cheap statistics path for plans
// that would not otherwise build the index (an O(n) scan is a bad
// trade for reading four counters).
func (x *RelIndexes) AttrStatsIfBuilt(name string) (AttrStats, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.attrs[name]; !ok {
		return AttrStats{}, false
	}
	x.freshSnapshotLocked()
	return x.attrs[name].Stats(), true
}

// Default selectivities where no statistics apply (derived inputs whose
// value distribution the catalog cannot see). Chosen to order plans
// sensibly rather than to be accurate: equalities are selective,
// inequalities pass about a third.
const (
	defaultEqSel  = 0.1
	defaultCmpSel = 1.0 / 3
)

// condSelectivity estimates the fraction of tuples a selection
// condition retains. stats resolves an attribute to its statistics (nil
// or a false return falls back to the defaults). Conjunctions multiply
// (independence assumption), disjunctions complement-multiply, and
// negation complements.
func condSelectivity(c hql.CondExpr, stats func(attr string) (AttrStats, bool)) float64 {
	if c.Pred != nil {
		p := c.Pred
		if p.Theta != value.EQ && p.Theta != value.NE {
			return defaultCmpSel
		}
		eq := defaultEqSel
		if stats != nil {
			// Only equality-shaped predicates consult (and thereby
			// warm) the attribute index; range predicates would build
			// one without ever probing it.
			if as, ok := stats(p.Attr); ok && as.Rows > 0 {
				eq = as.EqSelectivity()
			}
		}
		if p.Theta == value.NE {
			return clamp01(1 - eq)
		}
		return eq
	}
	switch c.Op {
	case "AND":
		s := 1.0
		for _, k := range c.Kids {
			s *= condSelectivity(k, stats)
		}
		return s
	case "OR":
		miss := 1.0
		for _, k := range c.Kids {
			miss *= 1 - condSelectivity(k, stats)
		}
		return clamp01(1 - miss)
	case "NOT":
		if len(c.Kids) == 1 {
			return clamp01(1 - condSelectivity(c.Kids[0], stats))
		}
	}
	return 0.5
}

// timesliceSelectivity estimates the fraction of tuples whose lifespan
// overlaps the window L: a tuple of average length a overlaps a window
// of total length w within a span of length s with probability about
// (a + w) / s — the classic interval-overlap estimate, using the
// lifespan density the interval index maintains.
func timesliceSelectivity(s RelStats, L lifespan.Lifespan) float64 {
	if s.Rows == 0 || L.IsEmpty() {
		return 0
	}
	if s.SpanLen <= 0 {
		return 1
	}
	w := 0.0
	for i := range L.NumIntervals() {
		w += ivLen(L.IntervalAt(i))
	}
	return clamp01((s.AvgLen + w) / s.SpanLen)
}

func clamp01(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	}
	return f
}
