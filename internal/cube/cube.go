package cube

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// Scheme is a cube relation scheme: attribute names and domains, the
// first NumKey of which form the object key.
type Scheme struct {
	Name   string
	Attrs  []string
	Doms   []value.Domain
	NumKey int
}

// Row is one slice of the cube: the state of one object at one chronon.
type Row struct {
	Time   chronon.Time
	Exists bool
	Vals   []value.Value // in scheme attribute order; valid only if Exists
}

// Relation is the cube: for each object key, one Row per chronon of the
// database clock range [Clock.Lo, Clock.Hi].
type Relation struct {
	scheme *Scheme
	clock  chronon.Interval
	// rows maps the canonical key to the object's dense timeline.
	rows map[value.Key][]Row
	keys []value.Key // insertion order, for deterministic iteration
}

// NewRelation returns an empty cube relation with the given database
// clock range; every recorded object carries a row for every chronon of
// this range.
func NewRelation(s *Scheme, clock chronon.Interval) *Relation {
	return &Relation{scheme: s, clock: clock, rows: make(map[value.Key][]Row)}
}

// Scheme returns the cube's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// Clock returns the database clock range.
func (r *Relation) Clock() chronon.Interval { return r.clock }

// NumObjects returns the number of distinct objects.
func (r *Relation) NumObjects() int { return len(r.keys) }

// NumRows returns the total number of materialized rows — the cube's
// storage unit count: objects × clock length.
func (r *Relation) NumRows() int {
	return len(r.keys) * int(r.clock.Duration())
}

// RecordState writes the object's state at time t: a full row with
// EXISTS? = true. Vals must follow scheme attribute order. Times outside
// the clock range are an error.
func (r *Relation) RecordState(t chronon.Time, vals []value.Value) error {
	if len(vals) != len(r.scheme.Attrs) {
		return fmt.Errorf("cube: row arity %d, want %d", len(vals), len(r.scheme.Attrs))
	}
	if !r.clock.Contains(t) {
		return fmt.Errorf("cube: time %v outside clock %v", t, r.clock)
	}
	k := value.KeyOf(vals[:r.scheme.NumKey]...)
	tl, ok := r.rows[k]
	if !ok {
		// Allocate the object's dense timeline: one row per chronon, all
		// non-existent until recorded.
		tl = make([]Row, r.clock.Duration())
		for i := range tl {
			tl[i] = Row{Time: r.clock.Lo + chronon.Time(i)}
		}
		r.rows[k] = tl
		r.keys = append(r.keys, k)
	}
	i := int(t - r.clock.Lo)
	tl[i] = Row{Time: t, Exists: true, Vals: append([]value.Value(nil), vals...)}
	return nil
}

// KeyHistory returns the existing rows for the object with the given key
// values, in time order — the "full history of one object" query of E11.
// The cube must scan the object's entire timeline to skip EXISTS?=false
// slices.
func (r *Relation) KeyHistory(keyVals ...value.Value) []Row {
	k := value.KeyOf(keyVals...)
	tl, ok := r.rows[k]
	if !ok {
		return nil
	}
	var out []Row
	for _, row := range tl {
		if row.Exists {
			out = append(out, row)
		}
	}
	return out
}

// SnapshotAt returns all rows existing at time t — "state of the
// database at t" (E11). One array index per object.
func (r *Relation) SnapshotAt(t chronon.Time) []Row {
	if !r.clock.Contains(t) {
		return nil
	}
	i := int(t - r.clock.Lo)
	var out []Row
	for _, k := range r.keys {
		row := r.rows[k][i]
		if row.Exists {
			out = append(out, row)
		}
	}
	return out
}

// When returns the set of times at which some existing row satisfies
// attr θ v — "when did P hold" (E11). The cube must scan every slice of
// every object.
func (r *Relation) When(attr string, th value.Theta, v value.Value) (lifespan.Lifespan, error) {
	ai := -1
	for i, a := range r.scheme.Attrs {
		if a == attr {
			ai = i
			break
		}
	}
	if ai < 0 {
		return lifespan.Lifespan{}, fmt.Errorf("cube: unknown attribute %s", attr)
	}
	var ivs []chronon.Interval
	for _, k := range r.keys {
		for _, row := range r.rows[k] {
			if !row.Exists {
				continue
			}
			ok, err := th.Apply(row.Vals[ai], v)
			if err != nil {
				return lifespan.Lifespan{}, err
			}
			if ok {
				ivs = append(ivs, chronon.Point(row.Time))
			}
		}
	}
	return lifespan.New(ivs...), nil
}

// SizeBytes estimates the storage footprint: every row of every object
// timeline, existing or not, at a fixed per-value cost. The estimate
// matches the accounting used for the other representations in E10
// (8 bytes per stored scalar, strings at length).
func (r *Relation) SizeBytes() int64 {
	var total int64
	perRowOverhead := int64(9) // time stamp + EXISTS? flag
	for _, k := range r.keys {
		for _, row := range r.rows[k] {
			total += perRowOverhead
			if row.Exists {
				for _, v := range row.Vals {
					total += valueBytes(v)
				}
			}
		}
	}
	return total
}

func valueBytes(v value.Value) int64 {
	if v.Kind() == value.KindString {
		return int64(len(v.AsString()))
	}
	return 8
}
