package storage

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file implements a human-editable text format for historical
// databases, so users can author relations for the CLI without writing
// Go. The format mirrors the model directly:
//
//	relation EMP key NAME
//	  attr NAME string  {[0,99]}
//	  attr SAL  int     {[0,99]} step
//	  attr DEPT string  {[0,99]} step
//	tuple {[0,9]}
//	  NAME = "John"  @ {[0,9]}
//	  SAL  = 30000   @ {[0,4]}
//	  SAL  = 34000   @ {[5,9]}
//	  DEPT = "Toys"  @ {[0,9]}
//	tuple {[3,19]}
//	  ...
//
// Blank lines and lines starting with '#' are ignored. A `tuple` block
// belongs to the most recent `relation`. Value kinds: int, float,
// string, bool, time (time constants written @t). Each assignment names
// the lifespan over which the value holds.

// ParseText reads a textual database into a Store.
func ParseText(r io.Reader) (*Store, error) {
	st := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var (
		curScheme  *schema.Scheme
		curAttrs   []schema.Attribute
		curKey     []string
		curName    string
		curRel     *core.Relation
		curBuilder *core.TupleBuilder
		pending    []*core.Tuple
		seenKeys   map[value.Key]bool
		lineNo     int
	)
	// Every relation section stages its tuples into one write group,
	// committed after the whole file parses: a multi-relation load is a
	// single publication, so a reader pinning a snapshot mid-load sees
	// either the entire file's contents or none of it — never relation
	// EMP loaded and its companion DEPT still empty.
	group := core.NewWriteGroup()
	finishScheme := func() error {
		if curName == "" || curScheme != nil {
			return nil
		}
		s, err := schema.New(curName, curKey, curAttrs...)
		if err != nil {
			return err
		}
		curScheme = s
		curRel = core.NewRelation(s)
		seenKeys = make(map[value.Key]bool)
		st.Put(curRel)
		return nil
	}
	finishTuple := func() error {
		if curBuilder == nil {
			return nil
		}
		t, err := curBuilder.Build()
		if err != nil {
			return err
		}
		curBuilder = nil
		// Duplicate keys are detected here, while the parser is still
		// near the offending tuple block, so the error carries a useful
		// line number; the batch flush below would only surface them at
		// the end of the relation section. The check mirrors the
		// relation's own canonical key encoding.
		parts := make([]string, len(curRel.Scheme().Key))
		for i, k := range curRel.Scheme().Key {
			parts[i] = t.KeyValue(k).String()
		}
		if ks := value.EncodeKey(parts); seenKeys[ks] {
			return fmt.Errorf("relation %s: duplicate key %s", curRel.Scheme().Name, ks)
		} else {
			seenKeys[ks] = true
		}
		// Tuples accumulate per relation and stage as one batch when the
		// relation section ends; the group commit below publishes every
		// section at once — one version bump and one coalesced index
		// merge per relation, one epoch tick for the whole file.
		pending = append(pending, t)
		return nil
	}
	flushRelation := func() error {
		if err := finishTuple(); err != nil {
			return err
		}
		if curRel == nil || len(pending) == 0 {
			return nil
		}
		group.InsertBatch(curRel, pending)
		pending = nil
		seenKeys = nil
		return nil
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("storage: text line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		switch fields[0] {
		case "relation":
			if err := flushRelation(); err != nil {
				return nil, fail("%v", err)
			}
			// Register the previous relation even if it had no tuples.
			if err := finishScheme(); err != nil {
				return nil, fail("%v", err)
			}
			// relation NAME key K1 [K2 ...]
			if len(fields) < 4 || fields[2] != "key" {
				return nil, fail("want: relation NAME key K1 [K2...]")
			}
			curName = fields[1]
			curKey = fields[3:]
			curScheme, curRel, curAttrs = nil, nil, nil
		case "attr":
			// attr NAME kind {lifespan} [interp]
			if curScheme != nil {
				return nil, fail("attr after tuples began")
			}
			if len(fields) < 4 {
				return nil, fail("want: attr NAME kind {lifespan} [interp]")
			}
			dom, err := domainByName(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			ls, err := lifespan.Parse(fields[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			a := schema.Attribute{Name: fields[1], Domain: dom, Lifespan: ls}
			if len(fields) > 4 {
				a.Interp = fields[4]
			}
			curAttrs = append(curAttrs, a)
		case "tuple":
			// tuple {lifespan}
			if err := finishScheme(); err != nil {
				return nil, fail("%v", err)
			}
			if err := finishTuple(); err != nil {
				return nil, fail("%v", err)
			}
			if curRel == nil {
				return nil, fail("tuple before any relation")
			}
			if len(fields) != 2 {
				return nil, fail("want: tuple {lifespan}")
			}
			ls, err := lifespan.Parse(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			curBuilder = core.NewTupleBuilder(curRel.Scheme(), ls)
		default:
			// ATTR = value @ {lifespan}
			if curBuilder == nil {
				return nil, fail("assignment outside a tuple block")
			}
			if len(fields) != 5 || fields[1] != "=" || fields[3] != "@" {
				return nil, fail("want: ATTR = value @ {lifespan}")
			}
			attr, ok := curRel.Scheme().Attr(fields[0])
			if !ok {
				return nil, fail("unknown attribute %s", fields[0])
			}
			v, err := parseValue(fields[2], attr.Domain.Kind)
			if err != nil {
				return nil, fail("%v", err)
			}
			ls, err := lifespan.Parse(fields[4])
			if err != nil {
				return nil, fail("%v", err)
			}
			for _, iv := range ls.Intervals() {
				curBuilder.Set(fields[0], iv.Lo, iv.Hi, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flushRelation(); err != nil {
		return nil, fmt.Errorf("storage: text: %w", err)
	}
	if err := finishScheme(); err != nil {
		return nil, fmt.Errorf("storage: text: %w", err)
	}
	if err := group.Commit(); err != nil {
		return nil, fmt.Errorf("storage: text: %w", err)
	}
	return st, nil
}

// splitFields splits on whitespace but keeps quoted strings and brace
// groups intact.
func splitFields(line string) []string {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		switch line[i] {
		case '"':
			i++
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' {
					i++
				}
				i++
			}
			if i < len(line) {
				i++ // closing quote
			}
			if i > len(line) { // trailing backslash ran past the end
				i = len(line)
			}
		case '{':
			depth := 0
			for i < len(line) {
				if line[i] == '{' {
					depth++
				}
				if line[i] == '}' {
					depth--
					if depth == 0 {
						i++
						break
					}
				}
				i++
			}
		default:
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
		}
		out = append(out, line[start:i])
	}
	return out
}

func domainByName(name string) (value.Domain, error) {
	switch name {
	case "int", "integers":
		return value.Ints, nil
	case "float", "reals":
		return value.Floats, nil
	case "string", "strings":
		return value.Strings, nil
	case "bool", "booleans":
		return value.Bools, nil
	case "time", "times":
		return value.Times, nil
	}
	return value.Domain{}, fmt.Errorf("unknown domain %q", name)
}

func parseValue(tok string, kind value.Kind) (value.Value, error) {
	switch kind {
	case value.KindString:
		s, err := strconv.Unquote(tok)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad string %s: %w", tok, err)
		}
		return value.String_(s), nil
	case value.KindInt:
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad int %s: %w", tok, err)
		}
		return value.Int(n), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad float %s: %w", tok, err)
		}
		return value.Float(f), nil
	case value.KindBool:
		switch tok {
		case "true":
			return value.Bool(true), nil
		case "false":
			return value.Bool(false), nil
		}
		return value.Value{}, fmt.Errorf("bad bool %s", tok)
	case value.KindTime:
		t, err := chronon.ParseTime(strings.TrimPrefix(tok, "@"))
		if err != nil {
			return value.Value{}, err
		}
		return value.TimeVal(t), nil
	}
	return value.Value{}, fmt.Errorf("unsupported kind %v", kind)
}

// textWriter folds write errors the way errWriter does for the binary
// codec: the first failure sticks, later prints are no-ops, and the
// dump surfaces it once at the end — no line can be silently dropped.
type textWriter struct {
	w   io.Writer
	err error
}

func (tw *textWriter) printf(format string, args ...any) {
	if tw.err != nil {
		return
	}
	_, tw.err = fmt.Fprintf(tw.w, format, args...)
}

// DumpText writes a Store in the textual format; ParseText(DumpText(s))
// reproduces s exactly. The tuple state is one pinned cut of the whole
// store (a dump racing a write group sees it entirely or not at all),
// and every write error — including the attr and tuple header lines —
// propagates, so a full disk yields an error instead of a silently
// truncated dump that ParseText would later reject.
func DumpText(w io.Writer, st *Store) error {
	cut := st.pinAll()
	tw := &textWriter{w: w}
	for i := range cut.vers {
		rv := cut.vers[i]
		s := rv.Rel().Scheme()
		tw.printf("relation %s key %s\n", s.Name, strings.Join(s.Key, " "))
		for _, a := range s.Attrs {
			interp := ""
			if a.Interp != "" {
				interp = " " + a.Interp
			}
			tw.printf("  attr %s %s %s%s\n", a.Name, kindName(a.Domain.Kind), a.Lifespan, interp)
		}
		for _, t := range rv.Tuples() {
			tw.printf("tuple %s\n", t.Lifespan())
			for i, a := range s.Attrs {
				t.ValueAt(i).Steps(func(iv chronon.Interval, v value.Value) bool {
					tw.printf("  %s = %s @ %s\n", a.Name, renderValue(v), lifespan.New(iv))
					return tw.err == nil
				})
			}
		}
		tw.printf("\n")
		if tw.err != nil {
			return tw.err
		}
	}
	return tw.err
}

func kindName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "int"
	case value.KindFloat:
		return "float"
	case value.KindString:
		return "string"
	case value.KindBool:
		return "bool"
	case value.KindTime:
		return "time"
	}
	return "invalid"
}

func renderValue(v value.Value) string {
	// The display form is already parseable for every kind.
	return v.String()
}
