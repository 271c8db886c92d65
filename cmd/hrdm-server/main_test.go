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

// TestSigtermAtListeningLineDrains builds the real binary and sends
// SIGTERM the instant the listening line appears — the earliest moment
// a supervisor can know the server is up. The server must already have
// its handler installed: it drains, prints "drained cleanly" and exits
// 0 instead of dying by the signal's default action.
func TestSigtermAtListeningLineDrains(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hrdm-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hrdm-server: %v\n%s", err, out)
	}
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
