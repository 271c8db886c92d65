package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// ciRunRe matches a `go test -run` pattern, quoted or bare.
	ciRunRe = regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	// ciFuzzRe matches an anchored `-fuzz` target and the package it fuzzes.
	ciFuzzRe = regexp.MustCompile(`-fuzz='\^(\w+)\$'.*\s(\./\S+)\s*$`)
	// testFuncRe matches the declaration of a test or fuzz target.
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// TestCINamesExist checks that the CI workflow names only tests that
// exist: every alternative of a `-run` pattern must match some Test or
// Fuzz function in the tree, and every `-fuzz='^Name$'` target must be a
// Fuzz function of the package the step fuzzes. Go runs a pattern that
// matches nothing as a pass, so without this check deleting or renaming
// a test silently empties a race or fuzz step.
func TestCINamesExist(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string][]string{}
	var all []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllSubmatch(src, -1) {
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], string(m[1]))
			all = append(all, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	runs, fuzzes := 0, 0
	for i, line := range strings.Split(string(ci), "\n") {
		for _, m := range ciRunRe.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				if alt == "^$" {
					continue // deliberately runs no test: a fuzz or bench step
				}
				runs++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				} else if !slices.ContainsFunc(all, re.MatchString) {
					t.Errorf("ci.yml:%d: -run alternative %q matches no test or fuzz function", i+1, alt)
				}
			}
		}
		if !strings.Contains(line, "-fuzz=") {
			continue
		}
		m := ciFuzzRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("ci.yml:%d: fuzz step is not `-fuzz='^Name$' … ./pkg`: %s", i+1, strings.TrimSpace(line))
			continue
		}
		fuzzes++
		if dir := filepath.Clean(m[2]); !slices.Contains(byDir[dir], m[1]) {
			t.Errorf("ci.yml:%d: fuzz target %s is not a function of %s", i+1, m[1], m[2])
		}
	}
	if runs == 0 || fuzzes == 0 {
		t.Fatalf("found %d -run alternatives and %d fuzz targets in ci.yml; the workflow's layout changed", runs, fuzzes)
	}
}
