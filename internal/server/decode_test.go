package server

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hrdmerr"
)

// requestSeeds are FuzzRequestDecode's seed lines: every request shape
// of docs/SERVER.md and the server tests, the keys encoding/json matches
// by case folding, repeated keys, nulls, unknown keys of every kind,
// escapes, invalid UTF-8, lone surrogates, and lines it refuses.
var requestSeeds = []string{
	`{"op":"ping"}`,
	`{"op":"query","q":"SELECT WHEN SAL = 30000 FROM EMP"}`,
	`{"op":"query","q":"SELECT WHEN NAME = 'John' FROM EMP"}`,
	`{"op":"explain","q":"EMP","analyze":true}`,
	`{"op":"explain","q":"EMP JOIN DEPTREL ON DEPT = DNAME","analyze":false}`,
	`{"op":"begin_group"}`,
	`{"op":"stage","rel":"EMP","tuple":"tuple {[0,9]}; NAME = \"x\" @ {[0,9]}"}`,
	`{"op":"stage","rel":"EMP","tuple":"tuple {[20,29]}; NAME = \"R&D \\\"q\\\" back\\\\slash <lead> ünï\" @ {[20,29]}"}`,
	`{"op":"commit"}`,
	`{"op":"abort"}`,
	`{"op":"metrics"}`,
	`{"op":"set","optimize":true}`,
	`{"op":"no\"such\nop"}`,
	`{"op":"ping","pad":"xxxxxxxx"}`,
	"this is not json",
	" \t{ \"op\" : \"ping\" } \r\n",
	`{}`, `null`, ``, ` `, `{`, `{"op"`, `{"op":`, `{"op":"ping"`, `{"op":"ping",}`, `{,}`,
	// Keys as encoding/json matches them.
	`{"OP":"ping"}`,
	`{"Op":"query","Q":"EMP","REL":"A","TuPlE":"t","ANALYZE":true}`,
	`{"op":"ping","Q":"EMP"}`,
	"{\"op\":\"ping\",\"\u212a\":1,\"K\":2,\"\u017f\":3,\"\u0130\":4}", // KELVIN SIGN, LONG S, DOTTED CAPITAL I
	"{\"op\":\"ping\",\"q\u212a\":\"x\",\"analy\u017fe\":true}",
	`{"\u006fP":"ping","\u212a":1,"ana\u004cyze":true,"\u0130":4}`,
	"{\"op\":\"ping\",\"\xff\":1,\"o\xffp\":\"x\"}",
	// Repeated keys and nulls.
	`{"op":"query","op":"ping"}`,
	`{"op":"ping","OP":"query"}`,
	`{"q":"a","q":null}`,
	`{"op":null,"q":null,"rel":null,"tuple":null,"analyze":null}`,
	`{"analyze":true,"analyze":false}`,
	`{"analyze":true,"analyze":null}`,
	// Unknown keys, whatever their value.
	`{"op":"ping","x":{"a":[1,2,{"b":null}],"c":"d"},"y":[],"z":-1.5e+3,"w":true,"v":false,"u":null,"t":{}}`,
	`{"x":[[]],"op":"ping","n":-0.0E-0,"m":12e5,"l":0}`,
	// Escapes, invalid UTF-8 and surrogates.
	`{"q":"\b\f\n\r\t\/\\\"\u0000é "}`,
	"{\"op\":\"ping\",\"q\":\"\xff\xfe \xc3 \xed\xa0\x80 \xef\xbf\xbd\"}",
	`{"q":"\ud800"}`, `{"q":"\udc00\ud800x"}`, `{"q":"😀"}`, `{"q":"\ud800𐀀"}`,
	`{"q":"😀\uDbFf"}`, `{"q":"\ud800A"}`, `{"q":"\ud800\"}`,
	// Refused: type mismatches, bad escapes and numbers, trailing bytes.
	`{"q":5}`, `{"analyze":"true"}`, `{"analyze":1}`, `{"op":[]}`, `{"op":{}}`, `{"op":true}`,
	`[1]`, `"ping"`, `5`, `true`, `nul`, `nullx`, `null null`,
	`{"q":"\'"}`, `{"q":"\u12"}`, `{"q":"\u12G4"}`, "{\"q\":\"tab\there\"}", `{"q":"\x"}`,
	`{"x":01}`, `{"x":-}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":+1}`, `{"x":[1,]}`, `{"x":[,1]}`, `{"x":tru}`,
	`{"op":"ping"} x`, `{"op":"ping"}{}`, "\xef\xbb\xbf{\"op\":\"ping\"}",
}

// FuzzRequestDecode: the hand decoder accepts exactly the lines
// json.Unmarshal accepts into a request, with equal fields, and refuses
// every other line as a bad_request whose message says it is malformed.
// One decoder serves every line, each after a line that fills its
// scratch buffer.
func FuzzRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	// The benchmark's line forms: json.Marshal'd maps, so '<', '>' and
	// '&' arrive as \u003c, \u003e and \u0026.
	for _, m := range []map[string]string{
		{"op": "query", "q": `SELECT WHEN SAL > 40000 DURING {[10,19]} FROM EMP`},
		{"op": "query", "q": `SELECT WHEN SAL < 10 FROM EMP`},
		{"op": "query", "q": `SELECT IF NAME = "R&D" FROM EMP`},
		{"op": "stage", "rel": "A", "tuple": `tuple {[0,9]}; K = "g1-3" @ {[0,9]}; V = 3 @ {[0,9]}`},
	} {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	deep := func(n int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	f.Add(deep(9999))  // the object and its arrays at encoding/json's depth limit, 10000
	f.Add(deep(10000)) // one past it
	var d decoder
	dirty := []byte(`{"op":"ééé","q":"éééééééé"}`)
	f.Fuzz(func(t *testing.T, line []byte) {
		var want, got, scratch request
		jerr := json.Unmarshal(line, &want)
		if err := d.decode(dirty, &scratch); err != nil {
			t.Fatal(err)
		}
		err := d.decode(line, &got)
		if (err == nil) != (jerr == nil) {
			t.Fatalf("%q: decode error %v, json.Unmarshal error %v", line, err, jerr)
		}
		if err != nil {
			if hrdmerr.CodeOf(err) != hrdmerr.CodeBadRequest || !strings.HasPrefix(hrdmerr.Message(err), "malformed request: ") {
				t.Fatalf("%q: refused with %v, want a malformed-request bad_request", line, err)
			}
			return
		}
		if got != want {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}
