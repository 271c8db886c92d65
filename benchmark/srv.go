package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dirs are the places the benchmark reads and writes: everything it
// creates goes under out, inside the benchmark's own directory.
type dirs struct {
	root string // the repository (module repro)
	out  string // benchmark/out, git-ignored
}

// locate finds the benchmark's directory from the working directory:
// `go run -C benchmark repro/benchmark` starts in it, `go test` too,
// and a run from the repository root is one level above.
func locate() (dirs, error) {
	wd, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	for _, bench := range []string{wd, filepath.Join(wd, "benchmark")} {
		mod, err := os.ReadFile(filepath.Join(bench, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro/benchmark\n")) {
			return dirs{root: filepath.Dir(bench), out: filepath.Join(bench, "out")}, nil
		}
	}
	return dirs{}, fmt.Errorf("run from the repository root or from benchmark/ (no benchmark go.mod near %s)", wd)
}

// buildServer compiles cmd/hrdm-server into out/bin. The go tool's
// cache makes a repeat build a check, so every run builds: a stale
// binary would measure another commit.
func buildServer(d dirs) (string, error) {
	bin := filepath.Join(d.out, "bin", "hrdm-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hrdm-server")
	cmd.Dir = d.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hrdm-server: %v\n%s", err, out)
	}
	return bin, nil
}

// child is a running hrdm-server process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	startup time.Duration // exec → first pong
	banner  []string      // lines printed before the listening line (the recovery report)
	output  []string      // every stdout+stderr line; read only after drained closes
	drained chan struct{} // closed when the output pipe reaches EOF
}

// startServer execs the server binary with its default flags plus the
// given store argument, waits for the listening line, and pings it.
func startServer(bin string, storeArgs ...string) (*child, error) {
	c := &child{drained: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, storeArgs...)...)
	pipe, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stderr = c.cmd.Stdout
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	type listening struct {
		addr   string
		before []string
	}
	ready := make(chan listening, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				ready <- listening{strings.Fields(rest)[0], append([]string(nil), c.output...)}
			}
			c.output = append(c.output, line)
		}
	}()
	select {
	case l := <-ready:
		c.addr, c.banner = l.addr, l.before
	case <-c.drained:
		c.cmd.Wait()
		return nil, fmt.Errorf("hrdm-server exited before listening: %s", strings.Join(c.output, " | "))
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("hrdm-server did not listen within 60s")
	}
	cl, err := dial(c.addr)
	if err == nil {
		var r reply
		if r, err = cl.do(opLine(map[string]string{"op": "ping"})); err == nil && r.Result != "pong" {
			err = fmt.Errorf("ping answered %+v", r)
		}
		cl.close()
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("first ping: %w", err)
	}
	c.startup = time.Since(t0)
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// end signals the process and waits until it has exited and its output
// is read; every started server ends through here.
func (c *child) end(sig syscall.Signal) error {
	c.cmd.Process.Signal(sig)
	<-c.drained
	return c.cmd.Wait()
}

// stop drains the server (SIGTERM); a durable store checkpoints. The
// server installs its handler just after it starts listening, so a
// SIGTERM that follows the first pong closely may end it the default
// way instead; nothing is lost with it, and that counts as stopped.
func (c *child) stop() error {
	err := c.end(syscall.SIGTERM)
	if ws, ok := c.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("hrdm-server drain: %v: %s", err, strings.Join(c.output, " | "))
	}
	return nil
}

// kill is the crash: SIGKILL, nothing flushed, nothing checkpointed.
func (c *child) kill() { c.end(syscall.SIGKILL) }

// procSample is what /proc says about a process at one instant.
type procSample struct {
	user, sys  float64 // CPU seconds
	peakRSSMB  float64 // VmHWM
	writeBytes int64   // /proc/PID/io write_bytes: bytes sent to the block layer
	writeCalls int64   // /proc/PID/io syscw
}

// clockTick is USER_HZ, 100 on every Linux the Go toolchain supports.
const clockTick = 100

func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return s, fmt.Errorf("short %s/stat", dir)
	}
	ut, _ := strconv.ParseFloat(rest[11], 64)
	st, _ := strconv.ParseFloat(rest[12], 64)
	s.user, s.sys = ut/clockTick, st/clockTick

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			s.peakRSSMB = kb / 1024
		}
	}
	// /proc/PID/io may be unreadable in a sandbox; the device numbers
	// are then reported as 0.
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		for _, line := range strings.Split(string(io), "\n") {
			if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
				s.writeBytes, _ = strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			}
			if rest, ok := strings.CutPrefix(line, "syscw:"); ok {
				s.writeCalls, _ = strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			}
		}
	}
	return s, nil
}
