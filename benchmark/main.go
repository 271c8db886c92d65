// Command benchmark is the served end-to-end benchmark of hrdm-server:
// it builds and launches the real server binary, drives it over the
// JSON-lines protocol from two connections, checks every answer it can
// against the paper's algebra (hql.EvalNaive), and reports end-to-end
// metrics (tracing off) or per-layer metrics (a separate traced pass).
// See README.md for the metric catalogue and the workloads.
//
//	go run -C benchmark repro/benchmark                       # all four workloads, both passes
//	go run -C benchmark repro/benchmark --workload scan_join  # one workload, end-to-end metrics
//	go run -C benchmark repro/benchmark --workload scan_join --trace 1
//	go run -C benchmark repro/benchmark -repeat 5 -out a.json
//	go run -C benchmark repro/benchmark -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
)

// Default and held-out seeds: work on a change with the first, confirm
// a claim on the second.
const (
	defaultSeed = 1987
	heldOutSeed = 4242
)

func main() {
	workload := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four, both passes)")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("seed of the generated data and request sequences; confirm a claim on the held-out seed %d", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "length of the timed window; BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	repeat := flag.Int("repeat", 0, "run the whole set this many times (seeds seed, seed+1, …) and write medians and quartiles to -out")
	out := flag.String("out", "", "with -repeat: the file to write")
	compare := flag.Bool("compare", false, "compare two -repeat files given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *repeat, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, repeat int, out string, compare bool, args []string) error {
	d, err := locate()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files written by -repeat")
		}
		return compareFiles(d, args[0], args[1])
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	switch {
	case repeat > 0:
		if out == "" {
			return fmt.Errorf("-repeat needs -out FILE")
		}
		return repeatRuns(d, seed, seconds, repeat, out)
	case workload == "":
		// The whole set: every workload, end-to-end then traced.
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				if _, err := runChild(name, seed, seconds, traced, os.Stdout); err != nil {
					return err
				}
			}
		}
		return nil
	}
	cfg := config{workload: workload, seed: seed, seconds: seconds, sizes: fullSizes, dirs: d}
	if cfg.bin, err = buildServer(d); err != nil {
		return err
	}
	res, err := runWorkload(cfg, trace == 1)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", workload, res.failed, res.attempted)
	}
	return nil
}

// driverLine is the object the driver reads from the last line of a
// --workload run's output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload in a process of its own, as the driver
// does: a run in this process would inherit the heap, the index catalog
// and the plan cache of the runs before it (set-up slows by half over
// five in-process runs). What the child prints before its last line
// goes to show, if show is not nil.
func runChild(name string, seed int64, seconds float64, traced bool, show io.Writer) (driverLine, error) {
	var line driverLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	text, last := lastLine(out)
	if show != nil {
		show.Write(text)
	}
	if runErr != nil {
		return line, fmt.Errorf("%s (trace %s): %w", name, trace, runErr)
	}
	return line, json.Unmarshal(last, &line)
}

// lastLine splits output into everything before its last line, and that line.
func lastLine(out []byte) (before, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

// result is one run of one workload in one mode.
type result struct {
	workload  string
	traced    bool
	seed      int64
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	notes     []string // facts worth a line that are not metrics
}

func (r *result) driverLine() driverLine {
	line := driverLine{r.failed == 0, r.attempted, r.failed, make(map[string]driverValue, len(r.metrics))}
	for name, m := range r.metrics {
		line.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	return line
}

// print writes every metric by name with its unit and sample count.
func (r *result) print(w *os.File) {
	pass := "end-to-end (tracing off)"
	if r.traced {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s seed %d: %s\n", r.workload, r.seed, pass)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-44s %16.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// runWorkload sets up (several times when the set-up time is the point),
// measures one window, and assembles the metrics of the requested pass.
func runWorkload(cfg config, traced bool) (*result, error) {
	res := &result{workload: cfg.workload, traced: traced, seed: cfg.seed, metrics: map[string]metric{}}
	var env *environment
	var took []float64
	n := setups
	if traced {
		n = 1 // the traced pass does not report setup_s
	}
	for i := 0; i < n; i++ {
		if env != nil {
			if err := env.tearDown(); err != nil {
				return nil, err
			}
		}
		var err error
		if env, err = setUp(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, env.took.Seconds())
	}
	defer env.tearDown()

	m, err := measure(cfg, env, traced)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.problems = m.tally()
	res.notes = append(res.notes,
		fmt.Sprintf("sequence hash %016x; negative control (a wrong expected hash) was reported", env.plan.seqHash))

	var killed *killedCopy
	if m.crash != nil {
		// The durability check is part of correctness in both passes.
		if killed, err = recoverKilledCopy(m.crash); err != nil {
			return nil, err
		}
		defer killed.store.Close()
		res.notes = append(res.notes, fmt.Sprintf(
			"killed after %d acked groups; un-acked group %s after restart; %s; cut copy (%d WAL bytes) replayed %d groups, %d tuples, %d torn bytes",
			m.crash.acked, m.crash.lastGroup, m.crash.banner, m.crash.ackedBytes,
			killed.stats.ReplayedGroups, killed.stats.ReplayedTuples, killed.stats.TornBytes))
	}

	if !traced {
		res.metrics["setup_s"] = metric{median(took), "s", len(took)}
		m.endToEnd(res.metrics)
		return res, nil
	}
	return res, perLayer(cfg, env, m, killed, res)
}
