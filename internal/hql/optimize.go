package hql

import "repro/internal/lifespan"

// Optimize rewrites a parsed query using the algebraic laws of the
// paper's Section 5, each of which is property-verified in
// internal/core (laws_test.go) and cost-measured in experiment E12:
//
//  1. σ pushdown over the object-based set operators:
//     σ(r1 ∪o r2) → σr1 ∪o σr2 (and ∩o, and the left operand of −o) —
//     E12 measures ~1.7× on union-merge inputs.
//  2. T_L composition: T_L1(T_L2(r)) → T_{L1 ∩ L2}(r) when both
//     lifespans are literal.
//  3. σ-WHEN/T_L reordering: T_L(σ-WHEN_p(r)) → σ-WHEN_p(T_L(r)) —
//     slicing first shrinks what σ must scan.
//  4. Projection pushdown over static TIME-SLICE:
//     π_X(T_L(r)) → T_L(π_X(r)) (both sides equal; π first drops
//     attribute payload early).
//
// Rewrites apply only where the law's side conditions hold syntactically;
// Optimize never changes results, just plans. It returns the rewritten
// expression and the number of rewrites applied.
func Optimize(e Expr) (Expr, int) {
	n := 0
	out := rewrite(e, &n)
	return out, n
}

func rewrite(e Expr, n *int) Expr {
	switch x := e.(type) {
	case *SelectExpr:
		x.Source = rewrite(x.Source, n)
		// Law 1: push σ below ∪o / ∩o / −o (left side only for −o).
		if b, ok := x.Source.(*BinaryExpr); ok && x.During == nil {
			switch b.Op {
			case "UNIONMERGE", "INTERSECTMERGE":
				*n++
				left := &SelectExpr{When: x.When, Cond: x.Cond, ForAll: x.ForAll, Source: b.Left}
				right := &SelectExpr{When: x.When, Cond: x.Cond, ForAll: x.ForAll, Source: b.Right}
				return rewrite(&BinaryExpr{Op: b.Op, Left: left, Right: right}, n)
			}
		}
		// Law 3: σ-WHEN over a literal static slice → slice first.
		// (Already slice-first syntactically; nothing to do — the
		// profitable direction is handled on the TimesliceExpr branch.)
		return x
	case *ProjectExpr:
		x.Source = rewrite(x.Source, n)
		// Law 4: π(T_L(r)) → T_L(π(r)).
		if ts, ok := x.Source.(*TimesliceExpr); ok && ts.By == "" {
			*n++
			inner := &ProjectExpr{Attrs: x.Attrs, Source: ts.Source}
			return rewrite(&TimesliceExpr{Source: inner, At: ts.At}, n)
		}
		return x
	case *TimesliceExpr:
		x.Source = rewrite(x.Source, n)
		if x.By != "" {
			return x
		}
		// Law 2: collapse nested literal slices.
		if ts, ok := x.Source.(*TimesliceExpr); ok && ts.By == "" &&
			x.At.Literal != "" && ts.At.Literal != "" {
			l1, err1 := lifespan.Parse(x.At.Literal)
			l2, err2 := lifespan.Parse(ts.At.Literal)
			if err1 == nil && err2 == nil {
				*n++
				merged := l1.Intersect(l2)
				return rewrite(&TimesliceExpr{
					Source: ts.Source,
					At:     &LSExpr{Literal: merged.String()},
				}, n)
			}
		}
		// Law 3: T_L(σ-WHEN_p(r)) → σ-WHEN_p(T_L(r)) — slice first so the
		// select scans less history. Only σ-WHEN commutes with slicing;
		// σ-IF does not (its ∃/∀ scope would change).
		if sel, ok := x.Source.(*SelectExpr); ok && sel.When && sel.During == nil {
			*n++
			inner := &TimesliceExpr{Source: sel.Source, At: x.At}
			return rewrite(&SelectExpr{When: true, Cond: sel.Cond, Source: inner}, n)
		}
		return x
	case *BinaryExpr:
		x.Left = rewrite(x.Left, n)
		x.Right = rewrite(x.Right, n)
		return x
	case *RenameExpr:
		x.Source = rewrite(x.Source, n)
		return x
	case *MaterializeExpr:
		x.Source = rewrite(x.Source, n)
		return x
	case *WhenExpr:
		x.Source = rewrite(x.Source, n)
		return x
	case *SnapshotExpr:
		x.Source = rewrite(x.Source, n)
		return x
	default:
		return e
	}
}
