package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo says where a set of runs was made; numbers from different
// hosts are not compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Kernel     string `json:"kernel"`
}

func host(d dirs) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown"}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "-C", d.root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(rel))
	}
	return h
}

// summary is one metric on one workload over the runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them, which is what the
// driver uses for a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(unit string, vs []float64) summary {
	q1, q3 := quartiles(vs)
	return summary{Unit: unit, Values: vs, Median: median(vs), Q1: q1, Q3: q3}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// repeatFile is what -repeat writes and -compare reads.
type repeatFile struct {
	Host    hostInfo                      `json:"host"`
	Runs    int                           `json:"runs"`
	Seed    int64                         `json:"first_seed"`
	Seconds float64                       `json:"seconds"`
	Results map[string]map[string]summary `json:"results"` // workload → metric
}

// repeatRuns runs the whole set — every workload, both passes, each run
// a process of its own — k times on seeds seed, seed+1, …, so two sets
// made with the same flags see the same inputs.
func repeatRuns(d dirs, seed int64, seconds float64, k int, out string) error {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		for _, name := range workloadNames {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, traced := range []bool{false, true} {
				line, err := runChild(name, seed+int64(i), seconds, traced, nil)
				if err != nil {
					return fmt.Errorf("run %d: %w", i, err)
				}
				for metric, m := range line.Metrics {
					values[name][metric] = append(values[name][metric], m.Value)
					units[metric] = m.Unit
				}
			}
			fmt.Printf("run %d/%d: %s done\n", i+1, k, name)
		}
	}
	file := repeatFile{Host: host(d), Runs: k, Seed: seed, Seconds: seconds,
		Results: map[string]map[string]summary{}}
	for name, metrics := range values {
		file.Results[name] = map[string]summary{}
		for metric, vs := range metrics {
			file.Results[name][metric] = summarize(units[metric], vs)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o666)
}

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(d dirs) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join(d.root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

func readRepeatFile(path string) (repeatFile, error) {
	var f repeatFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(data, &f)
}

// compareFiles prints one row per end-to-end metric × workload: both
// medians, the ratio with its base, and whether B is within the bound
// BENCHMARK.json records, worse, or unresolved because either set's
// own spread is wider than the bound.
func compareFiles(d dirs, pathA, pathB string) error {
	spec, err := readSpec(d)
	if err != nil {
		return err
	}
	a, err := readRepeatFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRepeatFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %s, %d runs, %d CPUs, %s, kernel %s\n", pathA, a.Host.Commit, a.Runs, a.Host.NProc, a.Host.GoVersion, a.Host.Kernel)
	fmt.Printf("B: %s  commit %s, %d runs, %d CPUs, %s, kernel %s\n", pathB, b.Host.Commit, b.Runs, b.Host.NProc, b.Host.GoVersion, b.Host.Kernel)
	if a.Seconds != b.Seconds || a.Seed != b.Seed {
		return fmt.Errorf("the two sets were made with different -seconds or -seed; they do not compare")
	}
	fmt.Printf("%-16s %-22s %14s %14s  %-22s %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "verdict")
	worse := 0
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			sa, okA := a.Results[name][m.Name]
			sb, okB := b.Results[name][m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s %s is missing from one of the files", name, m.Name)
			}
			ratio := sb.Median / sa.Median
			verdict := "within-bound"
			switch {
			case max(sa.spread(), sb.spread()) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f > bound %.2f)", max(sa.spread(), sb.spread()), m.Bound)
			case m.Better == "lower" && ratio > 1+m.Bound, m.Better == "higher" && ratio < 1-m.Bound:
				verdict = fmt.Sprintf("worse (bound %.2f, %s is better)", m.Bound, m.Better)
				worse++
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f  %.4f of %-12.4g %s\n",
				name, m.Name+" ["+m.Unit+"]", sa.Median, sb.Median, ratio, sa.Median, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound", worse)
	}
	return nil
}
