package tuplestamp

import (
	"fmt"
	"sort"

	"repro/internal/chronon"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// Scheme mirrors cube.Scheme: flat attributes with the first NumKey
// forming the object key.
type Scheme struct {
	Name   string
	Attrs  []string
	Doms   []value.Domain
	NumKey int
}

// Version is one immutable tuple version, valid over [From,To].
type Version struct {
	From, To chronon.Time
	Vals     []value.Value // scheme attribute order
}

// Relation is a tuple-timestamped relation: versions grouped per object
// key, each group sorted by From and pairwise disjoint.
type Relation struct {
	scheme   *Scheme
	versions map[value.Key][]Version
	keys     []value.Key
}

// NewRelation returns an empty relation.
func NewRelation(s *Scheme) *Relation {
	return &Relation{scheme: s, versions: make(map[value.Key][]Version)}
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// NumObjects returns the number of distinct keys.
func (r *Relation) NumObjects() int { return len(r.keys) }

// NumVersions returns the total version count — the storage unit count
// of the representation.
func (r *Relation) NumVersions() int {
	n := 0
	for _, vs := range r.versions {
		n += len(vs)
	}
	return n
}

// Append records a version. Versions of one object must not overlap;
// appends may arrive in any order.
func (r *Relation) Append(from, to chronon.Time, vals []value.Value) error {
	if len(vals) != len(r.scheme.Attrs) {
		return fmt.Errorf("tuplestamp: arity %d, want %d", len(vals), len(r.scheme.Attrs))
	}
	if from > to {
		return fmt.Errorf("tuplestamp: inverted interval [%v,%v]", from, to)
	}
	k := value.KeyOf(vals[:r.scheme.NumKey]...)
	vs := r.versions[k]
	nv := Version{From: from, To: to, Vals: append([]value.Value(nil), vals...)}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].From >= from })
	if i > 0 && vs[i-1].To >= from {
		return fmt.Errorf("tuplestamp: key %s: version [%v,%v] overlaps [%v,%v]",
			k, from, to, vs[i-1].From, vs[i-1].To)
	}
	if i < len(vs) && vs[i].From <= to {
		return fmt.Errorf("tuplestamp: key %s: version [%v,%v] overlaps [%v,%v]",
			k, from, to, vs[i].From, vs[i].To)
	}
	if _, seen := r.versions[k]; !seen {
		r.keys = append(r.keys, k)
	}
	vs = append(vs, Version{})
	copy(vs[i+1:], vs[i:])
	vs[i] = nv
	r.versions[k] = vs
	return nil
}

// KeyHistory returns the object's versions in time order — direct group
// access, like HRDM's per-object tuple but with one version per change.
func (r *Relation) KeyHistory(keyVals ...value.Value) []Version {
	return r.versions[value.KeyOf(keyVals...)]
}

// SnapshotAt returns the versions valid at t: a binary search per object.
func (r *Relation) SnapshotAt(t chronon.Time) []Version {
	var out []Version
	for _, k := range r.keys {
		vs := r.versions[k]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].To >= t })
		if i < len(vs) && vs[i].From <= t {
			out = append(out, vs[i])
		}
	}
	return out
}

// When returns the times at which some version satisfies attr θ v. Each
// satisfying version contributes its whole interval, so the scan is per
// version, not per chronon.
func (r *Relation) When(attr string, th value.Theta, v value.Value) (lifespan.Lifespan, error) {
	ai := -1
	for i, a := range r.scheme.Attrs {
		if a == attr {
			ai = i
			break
		}
	}
	if ai < 0 {
		return lifespan.Lifespan{}, fmt.Errorf("tuplestamp: unknown attribute %s", attr)
	}
	var ivs []chronon.Interval
	for _, k := range r.keys {
		for _, ver := range r.versions[k] {
			ok, err := th.Apply(ver.Vals[ai], v)
			if err != nil {
				return lifespan.Lifespan{}, err
			}
			if ok {
				ivs = append(ivs, chronon.NewInterval(ver.From, ver.To))
			}
		}
	}
	return lifespan.New(ivs...), nil
}

// Lifespan returns the union of all version intervals of the object —
// the derived equivalent of HRDM's tuple lifespan.
func (r *Relation) Lifespan(keyVals ...value.Value) lifespan.Lifespan {
	vs := r.versions[value.KeyOf(keyVals...)]
	ivs := make([]chronon.Interval, len(vs))
	for i, ver := range vs {
		ivs[i] = chronon.NewInterval(ver.From, ver.To)
	}
	return lifespan.New(ivs...)
}

// SizeBytes estimates the storage footprint with the same accounting as
// cube.SizeBytes and storage.SizeBytes: 8 bytes per scalar, strings at
// length, 16 bytes of timestamps per version.
func (r *Relation) SizeBytes() int64 {
	var total int64
	for _, k := range r.keys {
		for _, ver := range r.versions[k] {
			total += 16 // From, To
			for _, v := range ver.Vals {
				total += valueBytes(v)
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
