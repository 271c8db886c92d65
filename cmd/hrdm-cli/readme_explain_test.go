package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
)

// readmeExplainRe matches a README transcript's command line running
// one EXPLAIN through the shell, capturing the query.
var readmeExplainRe = regexp.MustCompile(`^\$ go run \./cmd/hrdm-cli -q "(EXPLAIN .*)"$`)

// epochRe masks the database epoch, a process-global counter whose
// value depends on what ran before.
var epochRe = regexp.MustCompile(`epoch \d+`)

// TestReadmeExplainTranscripts verifies that every EXPLAIN transcript
// in README.md — a `$ go run ./cmd/hrdm-cli -q "EXPLAIN …"` line and
// the output lines up to the next blank line or code fence — is what
// the shell prints for that query over the demo database today, with
// an empty plan cache and the epoch masked, so the documented plans
// cannot drift from the planner.
func TestReadmeExplainTranscripts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	found := 0
	for i, line := range lines {
		m := readmeExplainRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		found++
		var want strings.Builder
		for _, l := range lines[i+1:] {
			if l == "" || strings.HasPrefix(l, "```") || strings.HasPrefix(l, "$ ") {
				break
			}
			want.WriteString(l + "\n")
		}
		engine.ResetPlanCache()
		var got strings.Builder
		if err := runQuery(&got, demoSession(), m[1]); err != nil {
			t.Fatalf("README.md:%d: %s: %v", i+1, m[1], err)
		}
		g, w := epochRe.ReplaceAllString(got.String(), "epoch N"), epochRe.ReplaceAllString(want.String(), "epoch N")
		if g != w {
			t.Errorf("README.md:%d: %s\nthe shell prints\n%s\nthe README shows\n%s", i+1, m[1], g, w)
		}
	}
	engine.ResetPlanCache()
	if found == 0 {
		t.Fatal("README.md holds no EXPLAIN transcript")
	}
}
