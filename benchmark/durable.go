package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// crashReport is what killing and restarting the durable server showed.
type crashReport struct {
	recovery   time.Duration // exec of hrdm-server -open DIR → first pong
	banner     string        // the server's own recovery line
	acked      int           // groups acknowledged before the kill
	lastGroup  string        // the un-acked group: "present" or "absent"
	ackedBytes int64         // WAL size after the last ack
	killedDir  string        // copy of the directory as the kill left it, WAL cut to ackedBytes
	snapBytes  int64         // checkpoint size after recovery
}

// crashAndRecover sends one more group, kills the server without
// waiting for the ack, and checks durability twice: on the restarted
// server (recovery_s), and in-process on a copy of the directory whose
// WAL is cut back to its size at the last ack — a process kill leaves
// the OS cache intact, so only the cut copy holds just the bytes that
// had to be flushed.
func crashAndRecover(cfg config, env *environment, writer *client, acked int) (*crashReport, error) {
	rep := &crashReport{acked: acked}
	walPath := filepath.Join(env.storeDir(), "wal.log")
	rep.ackedBytes = fileSize(walPath)

	lines, _ := groupLines(acked)
	if err := writer.send(bytes.Join(lines, nil)); err != nil {
		return nil, err
	}
	env.srv.kill()
	env.srv = nil

	rep.killedDir = filepath.Join(env.dir, "killed")
	if err := copyDir(env.storeDir(), rep.killedDir); err != nil {
		return nil, err
	}
	if err := os.Truncate(filepath.Join(rep.killedDir, "wal.log"), rep.ackedBytes); err != nil {
		return nil, err
	}

	srv, err := startServer(cfg.bin, env.storeArg...)
	if err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	env.srv = srv
	rep.recovery = srv.startup
	if n := len(srv.banner); n > 0 {
		rep.banner = srv.banner[n-1]
	}
	rep.snapBytes = fileSize(filepath.Join(env.storeDir(), "store.hrdm"))

	// Every acknowledged group is in A and in B in full; the last group
	// is wholly there or wholly not.
	counts, err := servedPresence(srv.addr, acked+1)
	if err != nil {
		return nil, err
	}
	if rep.lastGroup, err = judgePresence(counts, acked); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	return rep, nil
}

// judgePresence checks per-group key counts (of 2*groupTuples) against
// the durability contract and names the un-acked group's fate.
func judgePresence(counts []int, acked int) (string, error) {
	for g, n := range counts[:acked] {
		if n != 2*groupTuples {
			return "", fmt.Errorf("acknowledged group %d has %d of %d tuples", g, n, 2*groupTuples)
		}
	}
	switch counts[acked] {
	case 0:
		return "absent", nil
	case 2 * groupTuples:
		return "present", nil
	}
	return "", fmt.Errorf("un-acked group %d is torn: %d of %d tuples", acked, counts[acked], 2*groupTuples)
}

// servedPresence asks the server for every key of groups [0,n) in both
// relations and returns how many of each group it found.
func servedPresence(addr string, n int) ([]int, error) {
	counts := make([]int, n)
	errs := make([]error, generators)
	var wg sync.WaitGroup
	for c := 0; c < generators; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := dial(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.close()
			for g := c; g < n; g += generators {
				for _, rel := range []string{"A", "B"} {
					for j := 0; j < groupTuples; j++ {
						q := queryRequest(fmt.Sprintf(`SELECT WHEN K = '%s' FROM %s`, groupKey(g, j), rel), -1)
						r, err := cl.do(q.line)
						if err == nil && !r.OK {
							err = fmt.Errorf("%s refused: %+v", q.query, *r.Error)
						}
						if err != nil {
							errs[c] = err
							return
						}
						counts[g] += r.Rows
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// storePresence is servedPresence against a store opened in-process.
func storePresence(st *storage.Store, n int) ([]int, error) {
	counts := make([]int, n)
	for _, name := range []string{"A", "B"} {
		rel, ok := st.Get(name)
		if !ok {
			return nil, fmt.Errorf("recovered store has no relation %s", name)
		}
		for g := range counts {
			for j := 0; j < groupTuples; j++ {
				if _, ok := rel.Lookup(value.String_(groupKey(g, j)).String()); ok {
					counts[g]++
				}
			}
		}
	}
	return counts, nil
}

// killedCopy is the cut copy of the killed directory, recovered in-process.
type killedCopy struct {
	stats storage.RecoveryStats
	took  time.Duration // storage.OpenDurable
	store *storage.Store
}

// recoverKilledCopy opens the cut copy in-process and checks the same
// durability contract on it.
func recoverKilledCopy(rep *crashReport) (*killedCopy, error) {
	t0 := time.Now()
	st, stats, err := storage.OpenDurable(rep.killedDir)
	k := &killedCopy{stats: stats, took: time.Since(t0), store: st}
	if err != nil {
		return nil, fmt.Errorf("open cut copy: %w", err)
	}
	counts, err := storePresence(st, rep.acked+1)
	if err == nil {
		_, err = judgePresence(counts, rep.acked)
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("cut copy (WAL of %d bytes): %w", rep.ackedBytes, err)
	}
	return k, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o777); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o666); err != nil {
			return err
		}
	}
	return nil
}
