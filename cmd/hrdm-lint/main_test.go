package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles hrdm-lint once into a temp dir and returns the
// binary path plus the repository root.
func buildDriver(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "hrdm-lint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hrdm-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building driver: %v\n%s", err, out)
	}
	return bin, root
}

// writeModule lays out a throwaway module that depends on repro via a
// local replace directive, so the driver's go-list loader resolves the
// engine's real packages without touching a network.
func writeModule(t *testing.T, root string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	// The module lives under the repro/ path prefix so Go's internal
	// visibility rule lets it import the engine's internal packages, and
	// under repro/cmd/ so pindiscipline's scope covers it.
	gomod := fmt.Sprintf("module repro/cmd/lintfixture\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", root)
	files["go.mod"] = gomod
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runDriver(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("running driver: %v\n%s", err, out)
		}
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestIntegrationFindings drives the built binary against a module
// containing one violation per line-pinned case and asserts the exit
// status and each diagnostic's position.
func TestIntegrationFindings(t *testing.T) {
	bin, root := buildDriver(t)
	dir := writeModule(t, root, map[string]string{
		"main.go": `package main

import "repro/internal/core"

func count(r *core.Relation) int { return len(r.Tuples()) }

//lint:allow nosuchanalyzer because reasons
func main() {}
`,
	})

	out, code := runDriver(t, bin, dir, "./...")
	if code != 1 {
		t.Fatalf("exit status = %d, want 1 (findings)\n%s", code, out)
	}
	for _, want := range []string{
		"main.go:5:47: pindiscipline:",
		"main.go:7:1: allow:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestIntegrationClean asserts the zero-findings exit status on a
// compliant module, including an annotated exemption.
func TestIntegrationClean(t *testing.T) {
	bin, root := buildDriver(t)
	dir := writeModule(t, root, map[string]string{
		"main.go": `package main

import "repro/internal/core"

func count(r *core.Relation) int {
	_, vers := core.Pin(r)
	return len(vers[0].Tuples())
}

func live(r *core.Relation) int {
	//lint:allow pindiscipline a deliberate live read, for a log line
	return len(r.Tuples())
}

func main() {}
`,
	})

	out, code := runDriver(t, bin, dir, "./...")
	if code != 0 {
		t.Fatalf("exit status = %d, want 0\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("expected no output, got:\n%s", out)
	}
}

// callRun invokes the driver entry point in-process, capturing its
// output through temp files (run writes to *os.File so main can hand
// it the real stdout/stderr).
func callRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	stdout, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	code := run(args, stdout, stderr)
	outBytes, _ := os.ReadFile(stdout.Name())
	errBytes, _ := os.ReadFile(stderr.Name())
	return string(outBytes) + string(errBytes), code
}

// TestListFlag pins the -list output: exactly the suite, in run order,
// one analyzer with its doc line per row.
func TestListFlag(t *testing.T) {
	out, code := callRun(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, ","), "allow,pindiscipline,lockorder"; got != want {
		t.Errorf("-list names %s, want %s:\n%s", got, want, out)
	}
}

// TestRunSubset runs two analyzers over this package in-process;
// the driver's own source is clean, so the subset run reports nothing.
func TestRunSubset(t *testing.T) {
	out, code := callRun(t, "-run", "pindiscipline,lockorder", ".")
	if code != 0 {
		t.Fatalf("subset run: exit %d\n%s", code, out)
	}
}

func TestUnknownAnalyzerFlag(t *testing.T) {
	if out, code := callRun(t, "-run", "nosuchanalyzer", "."); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2\n%s", code, out)
	}
}

func TestBadFlag(t *testing.T) {
	if _, code := callRun(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

// TestIntegrationBadFlag pins the checker-failure exit status.
func TestIntegrationBadFlag(t *testing.T) {
	bin, root := buildDriver(t)
	dir := writeModule(t, root, map[string]string{"main.go": "package main\n\nfunc main() {}\n"})

	if _, code := runDriver(t, bin, dir, "-run", "nosuchanalyzer", "./..."); code != 2 {
		t.Fatalf("unknown analyzer: exit status = %d, want 2", code)
	}
}
