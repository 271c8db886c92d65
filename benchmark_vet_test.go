package main

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets keeps the frozen end-to-end benchmark
// compiling against this tree. benchmark/ is its own module (replace
// repro => ../), so the root `go build ./...` and `go test ./...` do
// not see it: without this test, removing or renaming an API it uses
// would pass tier-1 and only fail when the benchmark is next run.
func TestBenchmarkModuleVets(t *testing.T) {
	if _, err := os.Stat("benchmark/go.mod"); err != nil {
		t.Skip("benchmark/ module is absent; nothing to guard")
	}
	if out, err := exec.Command("go", "vet", "-C", "benchmark", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}
