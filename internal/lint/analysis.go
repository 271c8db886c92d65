package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run is invoked once per
// loaded package whose import path falls inside Scope; it reports
// findings through the Pass. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers can migrate to the
// real framework wholesale if the module ever takes the dependency.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement the driver prints with
	// -list and LINTING.md elaborates.
	Doc string
	// Scope restricts the analyzer to packages whose import path has
	// one of these prefixes; empty means every analyzed package.
	// Fixture packages (under .../lint/testdata/) are always in scope,
	// so analysistest-style suites exercise scoped analyzers without
	// faking import paths.
	Scope []string
	Run   func(*Pass) error
}

// inScope reports whether the analyzer applies to a package path.
func (a *Analyzer) inScope(path string) bool {
	if strings.Contains(path, "/lint/testdata/") {
		return true
	}
	if len(a.Scope) == 0 {
		return true
	}
	for _, p := range a.Scope {
		if path == p || strings.HasPrefix(path, p+"/") || (strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
			return true
		}
	}
	return false
}

// Diagnostic is one position-anchored finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	sink     *[]Diagnostic
}

// Fset returns the position table of the loaded packages.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Info returns the package's type-checking results.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos. Findings silenced by a
// //lint:allow annotation are dropped here, so analyzers never see the
// annotation layer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzers applies every analyzer to every in-scope package and
// returns the surviving findings sorted by position. An analyzer
// returning an error aborts the run: a broken checker must fail the
// build loudly, not silently stop checking (the multichecker wiring
// the integration test pins).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.inScope(pkg.PkgPath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, sink: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s failed on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ---- shared type-query helpers ----

// calleeFunc resolves the called function or method of a call
// expression, or nil for indirect calls through variables and
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// walkChildren visits the direct children of n.
func walkChildren(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || c == n {
			return c == n
		}
		f(c)
		return false
	})
}

// isMethodOn reports whether f is the method pkgPath.typeName.name
// (pointer or value receiver).
func isMethodOn(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgPath, typeName)
}

// isNamed reports whether t (after pointer stripping) is the named
// type pkgPath.typeName.
func isNamed(t types.Type, pkgPath, typeName string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}
