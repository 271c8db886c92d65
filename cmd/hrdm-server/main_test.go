package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServer builds the real binary into a test temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hrdm-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hrdm-server: %v\n%s", err, out)
	}
	return bin
}

// TestSigtermAtListeningLineDrains builds the real binary and sends
// SIGTERM the instant the listening line appears — the earliest moment
// a supervisor can know the server is up. The server must already have
// its handler installed: it drains, prints "drained cleanly" and exits
// 0 instead of dying by the signal's default action.
func TestSigtermAtListeningLineDrains(t *testing.T) {
	bin := buildServer(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()

	var lines []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if strings.HasPrefix(sc.Text(), "listening on ") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := strings.Join(lines, "\n")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hrdm-server exited with %v, want status 0\n%s", err, out)
	}
	if !strings.Contains(out, "listening on ") || !strings.Contains(out, "drained cleanly") {
		t.Fatalf("output lacks the listening line or \"drained cleanly\":\n%s", out)
	}
}

// TestNegativeWorkersExitsWithUsage: a negative -workers is a usage
// error, like any malformed flag — status 2 and the usage on stderr —
// not a silent "all CPUs".
func TestNegativeWorkersExitsWithUsage(t *testing.T) {
	bin := buildServer(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "-1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()
	err := cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("hrdm-server -workers -1 exited with %v (status %d), want status 2\n%s", err, code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "flag -workers") || !strings.Contains(out, "Usage") {
		t.Fatalf("stderr lacks the -workers error or the usage:\n%s", out)
	}
}
