package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tinySizes keep the smoke test within seconds; scan_join's EMP drops
// below the parallel threshold, which the full sizes do not.
var tinySizes = sizes{emp: 600, scanEmp: 300, ref: 20, ab: 300, durEmp: 300}

// TestSmoke runs all four workloads at tiny sizes with one-second
// windows against a built server, in both passes, and checks what a
// later change to the benchmark is most likely to break: the printed
// metric names are exactly BENCHMARK.json's, nothing fails, and the
// span tree of the traced pass is well-formed.
func TestSmoke(t *testing.T) {
	d, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(d)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	cfg := config{seed: 7, sizes: tinySizes, dirs: d}
	if cfg.bin, err = buildServer(d); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		cfg.workload = name
		for _, traced := range []bool{false, true} {
			cfg.seconds = 1
			if traced {
				cfg.seconds = 0.5 // the traced pass's own work does not depend on the window
			}
			t0 := time.Now()
			res, err := runWorkload(cfg, traced)
			t.Logf("%s (traced %v): %v", name, traced, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", name, traced, res.failed, res.attempted, res.problems)
			}
			want := endToEnd
			if traced {
				want = perLayerUnits
			}
			checkNames(t, name, res.metrics, want)
			if traced {
				if v := res.metrics["engine.naive_fallbacks"].Value; v != 0 {
					t.Errorf("%s: engine.naive_fallbacks = %v, want 0", name, v)
				}
				checkSpanTree(t, filepath.Join(d.out, "trace-"+name+".json"))
			}
		}
	}
}

func checkNames(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json was not printed", workload, name)
		case m.Unit != unit || unit == "":
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: printed metric %s is not in BENCHMARK.json", workload, name)
		}
	}
}

// checkSpanTree reads a written trace back: children lie inside their
// parents and share their request, no self time is negative, and the
// self times of a request add up to its root (within 5 %; the EXPLAIN
// ANALYZE Σself test's idea applied to the harness).
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		span
		Self int64 `json:"self_ns"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	root := make([]int, len(recs)) // each span's root
	selfSum := map[int]int64{}
	for i, r := range recs {
		if r.End < r.Start || r.Self < 0 {
			t.Fatalf("%s: span %d %s: start %d, end %d, self %d", path, i, r.Name, r.Start, r.End, r.Self)
		}
		root[i] = i
		if r.Parent >= 0 {
			if r.Parent >= i {
				t.Fatalf("%s: span %d %s names a later parent %d", path, i, r.Name, r.Parent)
			}
			p := recs[r.Parent]
			if r.Start < p.Start || r.End > p.End || r.RequestID != p.RequestID {
				t.Fatalf("%s: span %d %s [%d,%d] request %d is not inside its parent %s [%d,%d] request %d",
					path, i, r.Name, r.Start, r.End, r.RequestID, p.Name, p.Start, p.End, p.RequestID)
			}
			root[i] = root[r.Parent]
		} else if r.Name != "request" {
			t.Fatalf("%s: root span %d is called %s", path, i, r.Name)
		}
		selfSum[root[i]] += r.Self
	}
	roots := make([]int, 0, len(selfSum))
	for i := range selfSum {
		roots = append(roots, i)
	}
	sort.Ints(roots)
	for _, i := range roots {
		total := float64(recs[i].End - recs[i].Start)
		if math.Abs(float64(selfSum[i])-total) > 0.05*total {
			t.Fatalf("%s: request %d: self times add up to %d ns, the root lasts %.0f ns", path, recs[i].RequestID, selfSum[i], total)
		}
	}
}

// TestSequenceHash: the same seed generates byte-identical request
// sequences, another seed different ones.
func TestSequenceHash(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newPlan(name, 7, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(name, 7, tinySizes)
		c, _ := newPlan(name, 8, tinySizes)
		if a.seqHash != b.seqHash {
			t.Errorf("%s: seed 7 gave sequence hashes %x and %x", name, a.seqHash, b.seqHash)
		}
		if a.seqHash == c.seqHash {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence hash %x", name, a.seqHash)
		}
	}
}

// TestNegativeControl: the answer detector reports a wrong hash and a
// wrong row count, and accepts the right ones.
func TestNegativeControl(t *testing.T) {
	r := reply{OK: true, Result: "x", Rows: 1}
	right := expect{rows: 1, hash: fnv1a("x"), hashed: true}
	for _, tc := range []struct {
		want expect
		v    verdict
	}{
		{right, good},
		{expect{rows: 1, hash: right.hash + 1, hashed: true}, wrong},
		{expect{rows: 2, hash: right.hash, hashed: true}, wrong},
		{expect{rows: -1}, good},
	} {
		if got := judge(r, tc.want); got != tc.v {
			t.Errorf("judge(%+v, %+v) = %v, want %v", r, tc.want, got, tc.v)
		}
	}
	if got := judge(reply{OK: false}, expect{rows: -1}); got != refused {
		t.Errorf("a refusal was judged %v", got)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
