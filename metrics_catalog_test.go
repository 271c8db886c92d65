package main

import (
	"bufio"
	"context"
	"encoding/json"
	"maps"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// catalogDocs hold the metric tables: a table whose header's first cell
// is "name" or "metric" lists, in the first cell of each row, the
// backticked full names it documents.
var catalogDocs = []string{"docs/OBSERVABILITY.md", "docs/DURABILITY.md", "docs/PARALLELISM.md"}

var backticked = regexp.MustCompile("`([^`]+)`")

// TestMetricCatalogMatchesDocs: after one durable server round trip —
// a query, an EXPLAIN ANALYZE, a committed write group and the
// checkpoint of a drain — every metric in obs.Default is documented in
// a metric table of catalogDocs, and every name those tables document
// is registered.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	st, _, err := storage.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MergeStore(workload.Demo()); err != nil {
		t.Fatal(err)
	}
	db := engine.OpenDB(st)
	srv := server.New(db, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	for _, req := range []string{
		`{"op":"query","q":"SELECT WHEN SAL = 30000 FROM EMP"}`,
		`{"op":"explain","q":"EMP JOIN DEPTREL ON DEPT = DNAME","analyze":true}`,
		`{"op":"begin_group"}`,
		`{"op":"stage","rel":"EMP","tuple":"tuple {[20,29]}; NAME = \"Zoe\" @ {[20,29]}"}`,
		`{"op":"commit"}`,
	} {
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		var resp struct{ OK bool }
		if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
			t.Fatalf("%s: %s", req, line)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	registered := map[string]bool{}
	snap := obs.Default.Snapshot()
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Gauges {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}
	documented := map[string]string{}
	for _, doc := range catalogDocs {
		for _, name := range documentedMetrics(t, doc) {
			documented[name] = doc
		}
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if documented[name] == "" {
			t.Errorf("metric %s is registered but in no metric table of %s", name, strings.Join(catalogDocs, ", "))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !registered[name] {
			t.Errorf("%s documents %s, which is not registered", documented[name], name)
		}
	}
}

// documentedMetrics returns the names in the metric tables of doc.
func documentedMetrics(t *testing.T, doc string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(doc))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	inTable, metricTable := false, false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		first := strings.TrimSpace(strings.SplitN(line[1:], "|", 2)[0])
		switch {
		case !inTable: // header row
			inTable = true
			metricTable = first == "name" || first == "metric"
		case metricTable && !strings.HasPrefix(first, "---"):
			for _, m := range backticked.FindAllStringSubmatch(first, -1) {
				names = append(names, m[1])
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s has no metric table", doc)
	}
	return names
}
