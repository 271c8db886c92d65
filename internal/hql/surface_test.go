package hql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestEvaluationSurface pins what this package is: parser, AST,
// normalizer and the naive reference evaluator — not a way
// to run queries. Anything exported that produces a Result (a function
// returning one, or a hook type whose implementations would) is an
// evaluation entry point, and exactly one may exist: EvalNaive, the
// oracle. Applications query through engine.Session.
func TestEvaluationSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	returnsResult := func(ft *ast.FuncType) bool {
		if ft.Results == nil {
			return false
		}
		for _, f := range ft.Results.List {
			if id, ok := f.Type.(*ast.Ident); ok && id.Name == "Result" {
				return true
			}
		}
		return false
	}
	var got []string
	for _, f := range pkgs["hql"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && returnsResult(d.Type) {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if ft, ok := ts.Type.(*ast.FuncType); ok && returnsResult(ft) {
						got = append(got, ts.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(got)
	if want := "EvalNaive"; strings.Join(got, " ") != want {
		t.Fatalf("exported evaluation surface = %v, want [%s]", got, want)
	}
}
