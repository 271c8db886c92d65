// Command hrdm-lint is the repository's multichecker: it runs the
// custom invariant analyzers of internal/lint (snapshot pin
// discipline, lock ordering) over the packages named on the command
// line, and optionally
// chains the standard `go vet` suite as an extended pass.
//
// Exit status follows the go/analysis multichecker convention:
//
//	0  no findings
//	1  findings reported
//	2  the checker itself failed (bad flags, unloadable packages)
//
// Usage:
//
//	hrdm-lint [-run name[,name...]] [-list] [-vet] [packages]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hrdm-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	vet := fs.Bool("vet", false, "also run the standard `go vet` suite on the same patterns")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *runNames != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*runNames, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "hrdm-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "hrdm-lint:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "hrdm-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}

	status := 0
	if len(diags) > 0 {
		status = 1
	}

	// The extended pass delegates to the toolchain's own vet suite
	// (the full standard analyzer set). The x/tools extras (nilness,
	// unusedwrite) need a module dependency this repository does not
	// take; docs/LINTING.md records that trade.
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); ok {
				if status == 0 {
					status = 1
				}
			} else {
				fmt.Fprintln(stderr, "hrdm-lint: go vet:", err)
				return 2
			}
		}
	}
	return status
}
