package constraint

import (
	"fmt"
	"strings"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/value"
)

// Violation describes one constraint violation; Check functions return
// all violations rather than stopping at the first, so loaders can report
// comprehensively.
type Violation struct {
	Constraint string
	Detail     string
}

// String renders the violation.
func (v Violation) String() string { return v.Constraint + ": " + v.Detail }

// CheckKey re-verifies the historical key condition of Section 3 on a
// relation built through unchecked channels (e.g. decoded from disk):
// distinct tuples never share key values at any pair of times, and keys
// are constant over their vls.
func CheckKey(r *core.Relation) []Violation {
	var out []Violation
	seen := make(map[value.Key]bool)
	for _, t := range r.Tuples() {
		parts := make([]string, len(r.Scheme().Key))
		for i, k := range r.Scheme().Key {
			kv := t.KeyValue(k)
			if !kv.IsValid() {
				out = append(out, Violation{
					Constraint: "key",
					Detail:     fmt.Sprintf("tuple with lifespan %v: key attribute %s is not a constant function", t.Lifespan(), k),
				})
				continue
			}
			parts[i] = kv.String()
		}
		ks := value.EncodeKey(parts)
		if seen[ks] {
			out = append(out, Violation{Constraint: "key", Detail: "duplicate key " + ks.String()})
		}
		seen[ks] = true
	}
	return out
}

// FD is a temporal functional dependency X → Y over a relation.
type FD struct {
	X, Y []string
}

// String renders the dependency.
func (fd FD) String() string {
	return strings.Join(fd.X, ",") + " -> " + strings.Join(fd.Y, ",")
}

// CheckIntraStateFD verifies that the FD holds at each single point in
// time: for every time s, the snapshot of r at s satisfies X → Y
// classically. This is the direct temporal lifting of the classical FD
// ("the 'meaning' of the traditional FD X → A can be captured ... in a
// straightforward way").
func CheckIntraStateFD(r *core.Relation, fd FD) []Violation {
	var out []Violation
	core.When(r).Each(func(s chronon.Time) bool {
		index := make(map[value.Key]value.Key)
		for _, t := range r.Tuples() {
			xs, ok := valuesAt(t, fd.X, s)
			if !ok {
				continue
			}
			ys, ok := valuesAt(t, fd.Y, s)
			if !ok {
				continue
			}
			if prev, dup := index[xs]; dup && prev != ys {
				out = append(out, Violation{
					Constraint: "fd " + fd.String(),
					Detail:     fmt.Sprintf("at time %v: X=%s maps to both %s and %s", s, xs, prev, ys),
				})
			}
			index[xs] = ys
		}
		return true
	})
	return out
}

// CheckTransStateFD verifies the stronger trans-state dependency: one
// X-value determines one Y-value across ALL points in time (not merely
// within each time point). E.g. "an employee's department determines the
// floor, and floors never move" would be trans-state; the intra-state
// version allows the floor to differ between times.
func CheckTransStateFD(r *core.Relation, fd FD) []Violation {
	var out []Violation
	index := make(map[value.Key]value.Key)
	when := make(map[value.Key]chronon.Time)
	core.When(r).Each(func(s chronon.Time) bool {
		for _, t := range r.Tuples() {
			xs, ok := valuesAt(t, fd.X, s)
			if !ok {
				continue
			}
			ys, ok := valuesAt(t, fd.Y, s)
			if !ok {
				continue
			}
			if prev, dup := index[xs]; dup && prev != ys {
				out = append(out, Violation{
					Constraint: "trans-fd " + fd.String(),
					Detail: fmt.Sprintf("X=%s maps to %s at time %v but %s at time %v",
						xs, prev, when[xs], ys, s),
				})
			} else {
				index[xs] = ys
				when[xs] = s
			}
		}
		return true
	})
	return out
}

func valuesAt(t *core.Tuple, attrs []string, s chronon.Time) (value.Key, bool) {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		v, ok := t.At(a, s)
		if !ok {
			return value.Key{}, false
		}
		parts[i] = v.String()
	}
	return value.EncodeKey(parts), true
}

// Monotone direction for dynamic constraints.
type Monotone uint8

const (
	// NonDecreasing forbids any later value below an earlier one.
	NonDecreasing Monotone = iota
	// NonIncreasing forbids any later value above an earlier one.
	NonIncreasing
)

// CheckMonotone verifies a dynamic constraint on how an attribute's value
// changes over each tuple's lifespan — the paper's "salary must never
// decrease" example is CheckMonotone(r, "SAL", NonDecreasing). The
// constraint applies within each object's history (across lifespan gaps
// too: a re-hired employee may not return at a lower salary under
// NonDecreasing).
func CheckMonotone(r *core.Relation, attr string, dir Monotone) []Violation {
	var out []Violation
	for _, t := range r.Tuples() {
		var prev value.Value
		var prevAt chronon.Time
		first := true
		bad := false
		t.Value(attr).Steps(func(iv chronon.Interval, v value.Value) bool {
			if !first && !bad {
				c, err := v.Compare(prev)
				if err != nil {
					out = append(out, Violation{
						Constraint: "monotone " + attr,
						Detail:     fmt.Sprintf("incomparable values: %v", err),
					})
					bad = true
					return false
				}
				if (dir == NonDecreasing && c < 0) || (dir == NonIncreasing && c > 0) {
					out = append(out, Violation{
						Constraint: "monotone " + attr,
						Detail: fmt.Sprintf("key %s: value %s at %v regresses from %s at %v",
							keyOf(r, t), v, iv.Lo, prev, prevAt),
					})
					bad = true
					return false
				}
			}
			first = false
			prev, prevAt = v, iv.Lo
			return true
		})
	}
	return out
}

func keyOf(r *core.Relation, t *core.Tuple) string {
	parts := make([]string, len(r.Scheme().Key))
	for i, k := range r.Scheme().Key {
		parts[i] = t.KeyValue(k).String()
	}
	return strings.Join(parts, "|")
}

// RefIntegrity describes a temporal inclusion dependency: for every tuple
// of Child, at every time of its lifespan, a tuple must exist in Parent
// whose ParentKey values (constant) equal the child's ChildAttrs values
// and whose lifespan covers that time.
type RefIntegrity struct {
	ChildAttrs []string // attributes of the child relation (constant-valued)
	ParentKey  []string // key attributes of the parent relation
}

// CheckRefIntegrity verifies the dependency: the child tuple's lifespan
// must be a subset of the referenced parent tuple's lifespan. This is the
// paper's student/course condition with ENROLL as child and STUDENT (or
// COURSE) as parent.
func CheckRefIntegrity(child, parent *core.Relation, ri RefIntegrity) []Violation {
	var out []Violation
	if len(ri.ChildAttrs) != len(ri.ParentKey) {
		return []Violation{{Constraint: "ref-integrity", Detail: "attribute count mismatch"}}
	}
	for _, ct := range child.Tuples() {
		keyVals := make([]string, len(ri.ChildAttrs))
		ok := true
		for i, a := range ri.ChildAttrs {
			v := ct.KeyValue(a)
			if !v.IsValid() {
				// Fall back to any constant value of the attribute.
				cv, has := ct.Value(a).ConstantValue()
				if !has {
					out = append(out, Violation{
						Constraint: "ref-integrity",
						Detail:     fmt.Sprintf("child tuple %s: referencing attribute %s is not constant", keyOf(child, ct), a),
					})
					ok = false
					break
				}
				v = cv
			}
			keyVals[i] = v.String()
		}
		if !ok {
			continue
		}
		pt, found := parent.Lookup(keyVals...)
		if !found {
			out = append(out, Violation{
				Constraint: "ref-integrity",
				Detail:     fmt.Sprintf("child %s references missing parent %s", keyOf(child, ct), strings.Join(keyVals, "|")),
			})
			continue
		}
		if !ct.Lifespan().SubsetOf(pt.Lifespan()) {
			out = append(out, Violation{
				Constraint: "ref-integrity",
				Detail:     fmt.Sprintf("child %s alive on %v but parent %s only on %v", keyOf(child, ct), ct.Lifespan(), strings.Join(keyVals, "|"), pt.Lifespan()),
			})
		}
	}
	return out
}
