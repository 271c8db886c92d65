package lint

import (
	"go/ast"
	"go/types"
)

// corePkg is the package whose types the analyzers key on. Fixture
// packages under testdata import the real thing, so the type-based
// matching is identical in tests and in CI.
const corePkg = "repro/internal/core"

// rawReadMethods are the *core.Relation accessors that hand out tuple
// state from the live relation. Inside the query layers they bypass
// the epoch/pin snapshot protocol: a multi-relation expression reading
// relation A through a raw accessor and relation B through another can
// observe a writer's publication between the two — the exact torn read
// core.Pin exists to exclude. Version() and Cardinality() are not
// listed: they are version and cardinality reads that carry no tuple
// state.
var rawReadMethods = map[string]bool{
	"Tuples":   true,
	"Lookup":   true,
	"Lifespan": true,
}

// Pindiscipline enforces the snapshot read discipline of
// docs/ARCHITECTURE.md on the layers that execute queries: engine and
// hql code (and the CLI/bench front ends) must read relation tuple
// state through a core.Pin — a RelVersion, a frozen View, or the
// engine's Snapshot accessors — never through the live relation's raw
// accessors. A deliberate live read carries a //lint:allow annotation
// stating why.
//
// Two shapes are flagged. A direct call (`r.Tuples()`) is the classic
// violation, wherever it sits — ast.Inspect descends into function
// literals, so a raw read inside a worker-goroutine closure is caught
// the same as one at top level. A method-value capture (`f :=
// r.Tuples`, or `pool.submit(r.Lifespan)`) is the parallel executor's
// failure mode: the accessor escapes the enclosing function — usually
// into a worker goroutine — and every later f() is a live read racing
// the publish path with no call expression left for the first shape to
// see. Worker kernels must capture a pinned RelVersion or Snapshot
// accessor instead.
var Pindiscipline = &Analyzer{
	Name:  "pindiscipline",
	Doc:   "query-layer reads of relation tuple state go through a pinned snapshot, not raw *core.Relation accessors",
	Scope: []string{"repro/internal/engine", "repro/internal/hql", "repro/internal/storage", "repro/cmd"},
	Run: func(pass *Pass) error {
		info := pass.Info()
		for _, f := range pass.Pkg.Files {
			// Selector expressions consumed as the Fun of a call are
			// handled by the direct-call shape; everything else resolving
			// to a raw read method is a capture.
			calledSel := make(map[*ast.SelectorExpr]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						calledSel[sel] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fn := calleeFunc(info, x)
					if fn == nil || !rawReadMethods[fn.Name()] || !isMethodOn(fn, corePkg, "Relation", fn.Name()) {
						return true
					}
					pass.Reportf(x.Pos(),
						"raw (*core.Relation).%s read outside a pinned snapshot; read through core.Pin / RelVersion / View (or annotate a deliberate live read with //lint:allow pindiscipline <reason>)",
						fn.Name())
				case *ast.SelectorExpr:
					if calledSel[x] {
						return true
					}
					fn, _ := info.Uses[x.Sel].(*types.Func)
					if fn == nil || !rawReadMethods[fn.Name()] || !isMethodOn(fn, corePkg, "Relation", fn.Name()) {
						return true
					}
					pass.Reportf(x.Pos(),
						"raw (*core.Relation).%s captured as a method value; it escapes the pin discipline (e.g. into a worker goroutine) — capture a pinned RelVersion/Snapshot accessor instead (or annotate with //lint:allow pindiscipline <reason>)",
						fn.Name())
				}
				return true
			})
		}
		return nil
	},
}
