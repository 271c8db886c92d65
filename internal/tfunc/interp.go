package tfunc

import (
	"fmt"
	"math"

	"repro/internal/lifespan"
	"repro/internal/value"
)

// Interpolator is the paper's interpolation function I (Section 3,
// Figure 9 discussion): it maps a "partially-represented function" with
// domain S' ⊆ S into a total function on S. The paper leaves I abstract;
// this package ships three concrete instances.
//
// Interpolate must return a function whose domain is exactly target and
// which agrees with f on Domain(f) ∩ target. It reports an error when the
// representation cannot be completed (e.g. target points precede every
// stored value under step interpolation).
type Interpolator interface {
	// Name identifies the interpolator in schemas and diagnostics.
	Name() string
	// Interpolate completes f to a total function on target.
	Interpolate(f Func, target lifespan.Lifespan) (Func, error)
}

// Discrete is the identity interpolation: values exist only where stored.
// Interpolating to a target outside the stored domain is an error. This
// models attributes like TRANSACTION-AMOUNT where no value can be
// inferred between recorded events.
type Discrete struct{}

// Name implements Interpolator.
func (Discrete) Name() string { return "discrete" }

// Interpolate implements Interpolator.
func (Discrete) Interpolate(f Func, target lifespan.Lifespan) (Func, error) {
	if !target.SubsetOf(f.Domain()) {
		missing := target.Minus(f.Domain())
		return Func{}, fmt.Errorf("tfunc: discrete interpolation undefined on %v", missing)
	}
	return f.Restrict(target), nil
}

// StepWise carries each stored value forward until the next stored value
// — the usual assumption for state-like attributes such as SALARY or
// MANAGER ("the salary holds until it is changed"). Target chronons
// before the first stored value are an error.
type StepWise struct{}

// Name implements Interpolator.
func (StepWise) Name() string { return "step" }

// Interpolate implements Interpolator.
func (StepWise) Interpolate(f Func, target lifespan.Lifespan) (Func, error) {
	if target.IsEmpty() {
		return Func{}, nil
	}
	if f.IsNowhereDefined() {
		return Func{}, fmt.Errorf("tfunc: step interpolation of nowhere-defined function")
	}
	if target.Min() < f.Domain().Min() {
		return Func{}, fmt.Errorf("tfunc: step interpolation undefined before first stored value at %v", f.Domain().Min())
	}
	// Extend each step to reach the start of the next step; the last step
	// extends to the end of the target.
	ext := make([]step, len(f.steps))
	copy(ext, f.steps)
	for i := range ext {
		if i+1 < len(ext) {
			ext[i].Iv.Hi = ext[i+1].Iv.Lo.Prev()
		} else if target.Max() > ext[i].Iv.Hi {
			ext[i].Iv.Hi = target.Max()
		}
	}
	total := canonical(ext)
	return total.Restrict(target), nil
}

// Linear interpolates numeric values linearly between stored points and
// carries the last value forward, modelling densely sampled quantities
// such as stock prices. Non-numeric values cause an error. Between two
// steps, interpolation runs from the end of the earlier step (at its
// value) to the start of the later step (at its value).
type Linear struct{}

// Name implements Interpolator.
func (Linear) Name() string { return "linear" }

// Interpolate implements Interpolator.
func (Linear) Interpolate(f Func, target lifespan.Lifespan) (Func, error) {
	if target.IsEmpty() {
		return Func{}, nil
	}
	if f.IsNowhereDefined() {
		return Func{}, fmt.Errorf("tfunc: linear interpolation of nowhere-defined function")
	}
	if target.Min() < f.Domain().Min() {
		return Func{}, fmt.Errorf("tfunc: linear interpolation undefined before first stored value at %v", f.Domain().Min())
	}
	for _, s := range f.steps {
		if k := s.V.Kind(); k != value.KindInt && k != value.KindFloat {
			return Func{}, fmt.Errorf("tfunc: linear interpolation over non-numeric %s values", k)
		}
	}
	var b Builder
	for _, s := range f.steps {
		b.Set(s.Iv.Lo, s.Iv.Hi, s.V)
	}
	// Fill the gaps between consecutive steps point by point. Gaps in
	// database histories are short (they are representation-level
	// ellipses), so pointwise filling is acceptable; the result re-coalesces
	// in Build.
	for i := 0; i+1 < len(f.steps); i++ {
		a, c := f.steps[i], f.steps[i+1]
		gapLo, gapHi := a.Iv.Hi.Next(), c.Iv.Lo.Prev()
		if gapLo > gapHi {
			continue
		}
		x0, y0 := float64(a.Iv.Hi), a.V.AsFloat()
		x1, y1 := float64(c.Iv.Lo), c.V.AsFloat()
		isInt := a.V.Kind() == value.KindInt && c.V.Kind() == value.KindInt
		for t := gapLo; t <= gapHi; t++ {
			y := y0 + (y1-y0)*(float64(t)-x0)/(x1-x0)
			if isInt {
				b.SetAt(t, value.Int(int64(math.Round(y))))
			} else {
				b.SetAt(t, value.Float(y))
			}
		}
	}
	// Carry the final value forward to the end of the target.
	last := f.steps[len(f.steps)-1]
	if target.Max() > last.Iv.Hi {
		b.Set(last.Iv.Hi.Next(), target.Max(), last.V)
	}
	return b.Build().Restrict(target), nil
}

// ByName returns the named interpolator. Recognized names: "discrete"
// (also the empty name, an attribute's default), "step", "linear".
func ByName(name string) (Interpolator, error) {
	switch name {
	case "discrete", "":
		return Discrete{}, nil
	case "step":
		return StepWise{}, nil
	case "linear":
		return Linear{}, nil
	}
	return nil, fmt.Errorf("tfunc: unknown interpolator %q", name)
}
