package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over its fixture package under testdata/src; the
// // want annotations there pin both the positive cases (the violation
// is reported, at that line, with that message) and the negative ones
// (compliant code and annotated exemptions stay silent).

func TestPindiscipline(t *testing.T) {
	linttest.Run(t, lint.Pindiscipline, "./testdata/src/pindiscipline")
}

func TestLockorder(t *testing.T) {
	linttest.Run(t, lint.Lockorder, "./testdata/src/lockorder")
}

func TestAllowValidation(t *testing.T) {
	linttest.Run(t, lint.AllowAnalyzer, "./testdata/src/allow")
}

// TestSuiteCleanOnTree is the enforcement backstop: the full analyzer
// suite over the repository's own packages must be silent. Reverting
// any of the fixes this suite guards (the pinned reads of the query
// layers, the ordered lock helper) turns this red at the offending
// line.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
