package hql

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/value"
)

// TestResultWireFormIsJSONOfText: for every result sort — relation,
// lifespan (WHEN), snapshot, and the empty result — the value.Wire
// rendering is exactly what encoding/json (HTML escaping off) makes of
// String. The hand-built snapshot carries names and string values that
// need escaping: quote, backslash, NUL, tab, U+2028, non-ASCII and
// markup.
func TestResultWireFormIsJSONOfText(t *testing.T) {
	env := testEnv(t)
	results := map[string]Result{"empty": {}}
	for _, q := range []string{`EMP`, `WHEN EMP`, `SNAPSHOT EMP AT 7`, `SNAPSHOT EMP AT 50`} {
		res, err := run(q, env)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		results[q] = res
	}
	s, err := rel.NewScheme("Q\"R\\S", []string{"K"}, []string{"K", "V\t<2>"}, []value.Domain{value.Strings, value.Floats})
	if err != nil {
		t.Fatal(err)
	}
	snap := rel.NewRelation(s)
	for i, k := range []string{"plain", `quote"back\slash`, "pipe|amp&<tag>", "ünï☃ tab\t nul\x00 ls\u2028 ps\u2029"} {
		snap.MustInsert(rel.Tuple{value.String_(k), value.Float(float64(i) / 4)})
	}
	results["hand-built snapshot"] = Result{Snapshot: snap}

	for name, res := range results {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(res.String()); err != nil {
			t.Fatal(err)
		}
		line := b.String() // "…"\n
		if got, want := string(res.AppendForm(nil, value.Wire)), line[1:len(line)-2]; got != want {
			t.Errorf("%s: wire form\n%s\nwant the JSON encoding of its String\n%s", name, got, want)
		}
	}
}
