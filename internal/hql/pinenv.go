package hql

import (
	"fmt"

	"repro/internal/core"
)

// This file makes the naive evaluator snapshot-complete. EvalNaive used
// to read live relation state through env.Get per RelName reference: a
// query touching two relations could observe relation A before a
// writer's publication and relation B after it — the exact anomaly the
// engine's planned path already excludes by pinning. pinExprEnv closes
// the gap, so the oracle stays exact under racing writers: it collects
// every base relation the expression references, captures one
// core.Pin cut of all of them, and wraps the frozen views in an Env,
// so the whole walk — including WHEN sub-queries in lifespan
// positions — reads one consistent database state.

// pinnedEnv resolves relation names to the frozen views of one pin.
// Lookups are strictly map-only: the name collector is exhaustive over
// the AST, so a miss is a bug surfaced as "unknown relation" rather
// than silently degrading to a live (torn-readable) lookup.
type pinnedEnv struct {
	rels map[string]*core.Relation
}

func (p *pinnedEnv) Get(name string) (*core.Relation, bool) {
	r, ok := p.rels[name]
	return r, ok
}

// pinExprEnv captures one consistent cut of every relation e
// references and returns an Env of frozen views. An expression
// referencing no relations returns env unchanged; an unknown name
// reports the same error evaluation would.
func pinExprEnv(e Expr, env Env) (Env, error) {
	seen := make(map[string]bool)
	var names []string
	collectRels(e, seen, &names)
	if len(names) == 0 {
		return env, nil
	}
	rels := make([]*core.Relation, len(names))
	for i, name := range names {
		r, ok := env.Get(name)
		if !ok {
			return nil, fmt.Errorf("hql: unknown relation %q", name)
		}
		rels[i] = r
	}
	_, vers := core.Pin(rels...)
	views := make(map[string]*core.Relation, len(names))
	for i, name := range names {
		views[name] = vers[i].View()
	}
	return &pinnedEnv{rels: views}, nil
}

// collectRels walks e and appends, in first-reference (evaluation)
// order, the name of every base relation it touches — including WHEN
// sub-queries in AT and DURING positions.
func collectRels(e Expr, seen map[string]bool, out *[]string) {
	switch n := e.(type) {
	case *RelName:
		if !seen[n.Name] {
			seen[n.Name] = true
			*out = append(*out, n.Name)
		}
	case *SelectExpr:
		collectRels(n.Source, seen, out)
		collectRelsLS(n.During, seen, out)
	case *ProjectExpr:
		collectRels(n.Source, seen, out)
	case *TimesliceExpr:
		collectRels(n.Source, seen, out)
		collectRelsLS(n.At, seen, out)
	case *RenameExpr:
		collectRels(n.Source, seen, out)
	case *MaterializeExpr:
		collectRels(n.Source, seen, out)
	case *BinaryExpr:
		collectRels(n.Left, seen, out)
		collectRels(n.Right, seen, out)
	case *WhenExpr:
		collectRels(n.Source, seen, out)
	case *SnapshotExpr:
		collectRels(n.Source, seen, out)
	}
}

// collectRelsLS walks a lifespan-valued expression for WHEN
// sub-queries.
func collectRelsLS(l *LSExpr, seen map[string]bool, out *[]string) {
	if l == nil {
		return
	}
	if l.When != nil {
		collectRels(l.When, seen, out)
	}
	collectRelsLS(l.Left, seen, out)
	collectRelsLS(l.Right, seen, out)
}
