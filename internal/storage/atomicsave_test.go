package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/value"
)

// failAfterWriter passes writes through until n bytes, then fails.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("injected write failure")
	}
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, fmt.Errorf("injected write failure")
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestSaveAtomicUnderWriteFailure: a save that fails at any byte
// offset must leave the previous good store file untouched and no temp
// litter behind.
func TestSaveAtomicUnderWriteFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.hrdm")

	old := NewStore()
	old.Put(fixture(t))
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The new state the failing saves try (and fail) to write.
	bigger := NewStore()
	r := fixture(t)
	r.MustInsert(dTuple2(r, "Extra", 99))
	bigger.Put(r)

	defer func() { saveWrapWriter = nil }()
	for _, failAt := range []int{0, 1, 7, 64, 300} {
		saveWrapWriter = func(w io.Writer) io.Writer { return &failAfterWriter{w: w, n: failAt} }
		if err := bigger.Save(path); err == nil {
			t.Fatalf("failAt %d: Save succeeded through a failing writer", failAt)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("failAt %d: previous store file gone: %v", failAt, err)
		}
		if !bytes.Equal(got, goodBytes) {
			t.Fatalf("failAt %d: previous store file modified by failed save", failAt)
		}
		if _, err := Load(path); err != nil {
			t.Fatalf("failAt %d: previous store no longer loads: %v", failAt, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".hrdm-save-") {
				t.Fatalf("failAt %d: temp file %s left behind", failAt, e.Name())
			}
		}
	}

	// And with the injection gone, the same save lands and replaces.
	saveWrapWriter = nil
	if err := bigger.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	br, _ := back.Get("EMP")
	if br.Cardinality() != 3 {
		t.Fatalf("reloaded store has %d EMP tuples, want 3", br.Cardinality())
	}
}

// dTuple2 builds a minimal extra tuple for the EMP fixture scheme.
func dTuple2(r *core.Relation, name string, sal int64) *core.Tuple {
	s := r.Scheme()
	return core.NewTupleBuilder(s, lifespan.MustParse("{[40,49]}")).
		Key("NAME", value.String_(name)).
		Set("SAL", 40, 49, value.Int(sal)).
		MustBuild()
}

// TestSaveRoundTripsHeader: Save writes the header's LSN slot and
// Load reads it back; plain stores carry LSN 0.
func TestSaveRoundTripsHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.hrdm")
	st := NewStore()
	st.Put(fixture(t))
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	back, lsn, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		t.Fatalf("plain store saved with LSN %d, want 0", lsn)
	}
	orig, _ := st.Get("EMP")
	got, _ := back.Get("EMP")
	if !got.Equal(orig) {
		t.Fatal("round trip lost data")
	}
}

// limitWriter accepts up to n bytes, then fails.
type limitWriter struct {
	n int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if len(p) > l.n {
		k := l.n
		l.n = 0
		return k, fmt.Errorf("injected: write past limit")
	}
	l.n -= len(p)
	return len(p), nil
}

// TestDumpTextPropagatesEveryWriteError: for every possible truncation
// point — including mid attr line and mid tuple header, the two spots
// that used to drop their errors — DumpText must report the failure
// rather than return a silently short dump.
func TestDumpTextPropagatesEveryWriteError(t *testing.T) {
	st := NewStore()
	st.Put(fixture(t))
	var full bytes.Buffer
	if err := DumpText(&full, st); err != nil {
		t.Fatal(err)
	}
	for cap := 0; cap < full.Len(); cap++ {
		if err := DumpText(&limitWriter{n: cap}, st); err == nil {
			t.Fatalf("cap %d of %d: DumpText swallowed the write failure", cap, full.Len())
		}
	}
	if err := DumpText(&limitWriter{n: full.Len()}, st); err != nil {
		t.Fatalf("exact-size writer must succeed: %v", err)
	}
}
